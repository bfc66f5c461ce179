"""Verification report: recompute every numeric claim about the rank-4
modular bundle family and compare against the recorded value.

The claim catalogue is the table `CLAIMS`, one `Claim` per record: its
canonical id, a function that recomputes the value and the recorded value,
if any. `run_report` keeps only the claims whose id starts with
`ReportConfig.only` and computes just those. Nothing is sampled: every
sweep runs over a fixed grid or is an exact certificate (on a basis, or on
a frame of points that a degree bound makes enough), so a claim computes the
same way alone as in the full catalogue. The config has
no sample count or seed: `samples` and `seed` are keyword arguments
accepted and dropped by `ReportConfig`, which checks `samples` first.

Each record carries the claim id, the recomputed value, the recorded value,
a verdict, and the provenance tag, which follows from the catalogue entry:

    verdict    pass | fail | discrepancy
    provenance derived (a sweep, an entry with no recorded value: two
               computations compared case by case, `N failures / M cases`)
               | stated (compared with the entry's recorded value)

The summary also counts a `skipped` verdict, which no record receives; the
key stays so that the report's schema does not change.

Exactly one record is expected to be a discrepancy: the recorded ch1^2.ch2
differs from the recomputation by the polynomial EXPECTED_DISCREPANCIES
pins. The report keeps both and never silently repairs the recorded one.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import chain, product
from math import gcd

from . import __version__
from .abelian import (
    forced_stable,
    forced_stable_via_jh,
    is_simple_semihom,
    is_simple_via_kernel,
    jh_decompositions,
    power_or_text,
    satollo_transfer,
    zeppola_integral,
    zeppola_oracle,
)
from .blowup import (
    XTwoClass,
    ch1_bundle,
    ch1_bundle_via_pushforward,
    delta_pairing_closed,
    delta_pairing_delta_delta,
    delta_pairing_via_chern,
    exceptional_class,
    is_modular_bundle,
    pullback_correspondence,
    pushforward_correspondence,
    quartic_chain,
    x_quartic,
)
from .chern import (
    a_invariant,
    a_invariant_components,
    ch1_ch3,
    ch1_fourth,
    ch1sq_c2,
    ch1sq_ch2_derived,
    ch1sq_ch2_stated,
    ch2_squared,
    ch2_td2,
    ch4_integral,
    chi_bundle,
    chi_end,
    chi_end_decomposition,
    chi_end_traceless,
    gianni_decomposition,
    polynomial_identities,
)
from .fiber import (
    SubsheafProfile,
    destabilizer_margin,
    destabilizer_profiles,
    fiber_degrees,
    fiber_degrees_gram,
    invariant_torsion_cosets,
    minimum_destabilizer_margin,
    monodromy_fixed_points,
    monodromy_group,
    only_trivial_coset,
    only_zero_fixed,
    rank_failures,
    subsheaf_rank,
)
from .kummer import (
    C2_SQUARE_VALUE,
    KummerTwoClass,
    basis,
    c2_pair,
    fujiki_integral,
    fujiki_symmetrized,
    modularity_coefficient,
    riemann_roch_from_square,
)
from .lattice import (
    SYMBOL_A,
    AbelianSurfaceModel,
    classify_moduli_case,
    kummer_divisibility,
    nocamere_bound,
    theorem_hypothesis,
)
from .walls import (
    MODULI_VECTOR,
    ample_thresholds,
    ampleness_text,
    generate_wall_cases,
    is_ample_h,
    mukai_square,
)

VERDICTS = ("pass", "fail", "discrepancy", "skipped")
PROVENANCES = ("stated", "derived")

#: The one known mismatch: the claim id, and its recorded minus computed value.
EXPECTED_DISCREPANCIES = {"chern-ch1sq-ch2": 288 * SYMBOL_A * SYMBOL_A - 216 * SYMBOL_A}


class ClaimRecord:
    __slots__ = ("claim_id", "computed", "stated", "verdict", "provenance")

    def __init__(self, claim_id: str, computed: str, stated: str, verdict: str, provenance: str):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        self.claim_id = claim_id
        self.computed = computed
        self.stated = stated
        self.verdict = verdict
        self.provenance = provenance


class ReportConfig:
    """The `only` prefix and three ranges; the defaults are the ones
    `hkverify report` always runs. Only library callers set the ranges: the
    benchmark's sweep-grid workload and `tests/test_golden.py` use
    `abar_max=8, a_max=200, md_max=121`.

    Only `ample-sweep` reads a range: `abar_max` bounds its box. The other
    sweeps are exact certificates whose frames do not depend on the config,
    `lattice-discriminant-sweep`, `chern-chi-end-sweep`,
    `fiber-degrees-gram` and `fiber-rank-integrality` among them, so
    `a_max` and `md_max` change no record. They stay, validated and echoed
    in the JSON config block, because the benchmark sends them; `md_max`
    must still be at least 9, the first m*d of the rank certificate. A range
    must be an int (a bool is stored as its int), `samples` an int or None
    and `only` a str or None, else TypeError. No claim samples, but
    `samples` and `seed` are keyword arguments accepted and dropped
    (`samples` is checked first), because the benchmark's worker
    (`perfbench/child.py`) passes both for its sweep-grid workload."""

    __slots__ = ("abar_max", "a_max", "md_max", "only")

    def __init__(
        self, abar_max=3, a_max=50, md_max=41, samples=None, seed=None, only=None
    ) -> None:
        ranges = (abar_max, a_max, md_max)
        if not all(isinstance(v, int) for v in ranges):
            raise TypeError("abar_max, a_max and md_max must be integers")
        if not (samples is None or isinstance(samples, int)):
            raise TypeError("samples must be an integer or None")
        if not (only is None or isinstance(only, str)):
            raise TypeError("only must be a string or None")
        if abar_max < 1 or a_max < 1 or (samples is not None and samples < 1):
            name = "abar_max" if abar_max < 1 else "a_max" if a_max < 1 else "samples"
            raise ValueError(f"{name} must be positive")
        if md_max < 9:
            raise ValueError("md_max must be at least 9")
        self.abar_max, self.a_max, self.md_max = map(int, ranges)
        self.only = only


class Report:
    __slots__ = ("config", "records", "summary")

    def __init__(self, config: ReportConfig, records: tuple[ClaimRecord, ...], summary: dict):
        self.config = config
        self.records = records
        self.summary = summary


def _s(value) -> str:
    """Canonical string for report values: Fractions as p/q, tuples joined."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_s(v) for v in value) + ")"
    return str(value)


class Claim:
    """One catalogue entry. `compute(cfg)` returns the recomputed value,
    compared with the recorded value `stated`; an entry with no recorded
    value is a sweep, and its `compute` returns (failures, cases)."""

    __slots__ = ("claim_id", "compute", "stated")

    def __init__(self, claim_id: str, compute: Callable[[ReportConfig], object], stated=None):
        self.claim_id = claim_id
        self.compute = compute
        self.stated = stated


def _sweep(case_failures: Iterable[int]) -> tuple[int, int]:
    """(failures, cases) over cases, given the number of failed checks in
    each case; both are counted in one pass."""
    failures = cases = 0
    for cases, failed in enumerate(case_failures, 1):
        failures += failed
    return (failures, cases)


_SMALL = AbelianSurfaceModel(2, 5)  # the halved model
_BIG = AbelianSurfaceModel(4, 5)  # the doubled model


# Basis certificates. Both sides of fujiki-symmetrization,
# blowup-pullback-quartic and blowup-pushpull-degree are multilinear in their
# classes: bbf is bilinear, so fujiki_integral and fujiki_symmetrized are sums
# of products of bilinear terms; pullback_correspondence and
# pushforward_correspondence are linear, and x_quartic is multilinear in each
# (base, t). Two multilinear forms that agree on every ordered tuple of basis
# classes agree everywhere, so these sweeps over all ordered tuples of
# basis(_BIG) prove the identities for every rational class, with no symmetry
# assumed. Both sides of delta-pairing-two-paths are bilinear in (alpha, beta)
# and, as ch1_bundle and the line class of ch2_pairing are affine in (x, y),
# of total degree <= 2 in (x, y); a polynomial of degree <= 2 in each of two
# variables that vanishes on the 3x3 grid _GRID x _GRID is zero.
#
# blowup-ch1-paths is an affine certificate: every coefficient of ch1_bundle
# and of ch1_bundle_via_pushforward (a pushforward, which is linear, of a
# class affine in the inputs) is a constant plus a linear form in
# (p, q, x, y), where the line class is
# pullback(mu(p*omegabar + q*gamma) + x*delta) + y*D. Their difference is
# affine, and an affine map that vanishes at the origin and at the four unit
# vectors (_AFFINE_FRAME) vanishes at every rational point.
_BASIS = basis(_BIG)
_GRID = (-1, 0, 1)
_AFFINE_FRAME = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# Degree-bound certificates. A polynomial of degree <= n in one variable that
# vanishes at n + 1 distinct points is zero, and one of degree <= n1 in x and
# <= n2 in y that vanishes on an (n1 + 1) x (n2 + 1) grid is zero. So each
# frame below proves its identity for every value of the variables, and with
# it every case of the box the sweep used to check, whatever its range.
#
# lattice-discriminant-sweep: the determinant of [[x, d], [d, 0]],
# x = omegabar^2, has degree <= 1 in x and <= 2 in d, and so has -d^2. Their
# difference vanishes on the 2x3 grid {2, 4} x {1, 2, 3}, so it vanishes at
# every x = k*abar (k in {2, 4}) and d of the old box.
_DISCRIMINANT_FRAME = tuple(product((2, 4), (1, 2, 3)))

# fiber-degrees-gram: both fiber_degrees and fiber_degrees_gram read (m, d)
# only through md = m*d (`fiber._check_md`), and both have degree <= 2 in md:
# 12 md (md - 1) and 24 md, against the Gram squares
# 2 * 4 * ((md - 1)/2) * 3 md and 2 * 12 md. So three values of md, here 2, 3
# and 4 (an integral and a half-integral V coefficient), prove the identity
# at every m*d > 1, the old box m in {1, 2, 3}, d <= 13 included.
_FIBER_DEGREE_FRAME = ((1, 2), (3, 1), (2, 2))

# fiber-rank-integrality: write s = r1' + r1'' and e = s - 2 r2, so |e| <= 8.
# The rank is (s md - e)/(2 md). For md > 8 it is an integer exactly when
# e = 0: an integer k gives e = (s - 2k) md, a multiple of md smaller than md
# in size. So integer_rank_criterion (e = 0) and the integrality of the rank
# do not depend on md, and one md > 8 decides the criterion check. The
# weighted rank is (s deg V + r2 deg Delta)/(2 deg V + deg Delta) with
# deg V = 12 md (md - 1) and deg Delta = 24 md, so both cross products of
# the kernel comparison have degree <= 3 in md and agree at every md once
# they agree at four values. The four rows md = 9, 11, 13, 15 of all 125
# profiles prove both checks for every md > 8, every row of the old box
# md = 9, 11, ..., md_max included.
_RANK_FRAME = (9, 11, 13, 15)


def _line(p, q, x, y) -> XTwoClass:
    """The line class pullback(mu(p*omegabar + q*gamma) + x*delta) + y*D on X."""
    return XTwoClass(KummerTwoClass(_SMALL, p, q, x), y)


def _ch1_paths_cases():
    for frame in _AFFINE_FRAME:
        line = _line(*frame)
        yield ch1_bundle(line) != ch1_bundle_via_pushforward(line)


def _delta_pairing_cases():
    for x, y in product(_GRID, _GRID):
        line = _line(1, 0, x, y)
        for alpha, beta in product(_BASIS, _BASIS):
            via_chern = delta_pairing_via_chern(line, alpha, beta)
            yield via_chern != delta_pairing_closed(x - y, alpha, beta)


def _pullback_quartic_cases():
    # the three pulled-back basis classes, built once per sweep
    pulled = [pullback_correspondence(c) for c in _BASIS]
    for cs, xs in zip(product(_BASIS, repeat=4), product(pulled, repeat=4)):
        yield x_quartic(*xs) != 4 * fujiki_integral(*cs)


def _ample_cases(cfg: ReportConfig):
    for abar in range(1, cfg.abar_max + 1):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            for d in range(sep + 1, sep + 201, 2):
                yield is_ample_h(abar, d, m) is not None


def _chi_end_cases():
    # chern-chi-end-sweep compares chi(End) with 3, the traceless part with 0
    # and 8 ch4 - 2 ch1.ch3 + ch2^2 with 18: Polys in a of degree at most the
    # largest degree n among the five read here (2 today), so the frame
    # a = 1 ... n + 1 proves all three for every a, every a <= a_max of the
    # old box included. The frame is read from the Polys, so an entry of
    # higher degree widens it.
    polys = (chi_end, chi_end_traceless, ch4_integral, ch1_ch3, ch2_squared)
    for v in range(1, max(len(p.coeffs) for p in polys) + 1):
        yield (chi_end(v) != 3 or chi_end_traceless(v) != 0) + (
            8 * ch4_integral(v) - 2 * ch1_ch3(v) + ch2_squared(v) != 18
        )


def _rank_integrality_sweep(cfg: ReportConfig) -> tuple[int, int]:
    profiles = [SubsheafProfile(*ranks) for ranks in product(range(5), repeat=3)]
    rows = (rank_failures(profiles, md) for md in _RANK_FRAME)
    return _sweep(chain.from_iterable(rows))


def _monodromy_fixed_point(cfg: ReportConfig) -> str:
    fixed = monodromy_fixed_points()
    return f"{len(fixed)} ({'zero only' if only_zero_fixed(fixed) else 'other'})"


def _monodromy_invariant_coset(cfg: ReportConfig) -> str:
    cosets = invariant_torsion_cosets()
    trivial = only_trivial_coset(cosets)
    return f"{len(cosets)} ({'trivial' if trivial else 'other'})"


def _satollo_transfer(cfg: ReportConfig) -> tuple[int, ...]:
    model, divisors = satollo_transfer(1, 5)
    return (model.self_omega, model.mixed_d) + divisors


CLAIMS = (
    # lattice
    Claim("lattice-discriminant", lambda cfg: _BIG.discriminant(), -25),
    Claim(
        "lattice-discriminant-sweep",
        lambda cfg: _sweep(
            AbelianSurfaceModel(x, d).discriminant() != -d * d for x, d in _DISCRIMINANT_FRAME
        ),
    ),
    Claim(
        "lattice-negative-square-bound",
        lambda cfg: (nocamere_bound(3, 0), nocamere_bound(1, 0)),
        (-6, -2),
    ),
    Claim(
        "divisibility-values",
        lambda cfg: tuple(
            kummer_divisibility(*c) for c in ((2, 0, -1), (6, 0, -1), (1, 0, 0), (0, 0, 1))
        ),
        (2, 6, 1, 6),
    ),
    Claim(
        "moduli-cases",
        lambda cfg: tuple(
            classify_moduli_case(e, i) for e, i in ((10, 2), (4, 1), (3, 1), (138, 6))
        ),
        (True, True, False, True),
    ),
    Claim(
        "theorem-hypothesis",
        lambda cfg: tuple(theorem_hypothesis(e, i) for e, i in ((10, 2), (26, 2), (138, 6))),
        (1, 2, 1),
    ),
    # Kummer fourfold
    Claim(
        "fujiki-delta-fourth",
        lambda cfg: fujiki_integral(*[KummerTwoClass(_BIG, 0, 0, 1)] * 4),
        324,
    ),
    Claim(
        "fujiki-symmetrization",
        lambda cfg: _sweep(
            fujiki_integral(*cs) != fujiki_symmetrized(*cs)
            for cs in product(_BASIS, repeat=4)
        ),
    ),
    Claim("c2-square", lambda cfg: C2_SQUARE_VALUE, 756),
    Claim(
        "c2-pairing-coefficient",
        lambda cfg: modularity_coefficient(c2_pair, _BIG),
        54,
    ),
    Claim(
        "rr-values",
        lambda cfg: tuple(riemann_roch_from_square(q) for q in (0, 2, 4, 10)),
        (3, 9, 18, 63),
    ),
    # blow-up
    Claim(
        "blowup-exceptional-fourth",
        lambda cfg: x_quartic(*[exceptional_class(_SMALL)] * 4),
        162,
    ),
    Claim(
        "blowup-quartic-chain",
        lambda cfg: quartic_chain(_SMALL),
        (81, Fraction(243, 2), 81, Fraction(81, 2)),
    ),
    Claim("blowup-pullback-quartic", lambda cfg: _sweep(_pullback_quartic_cases())),
    Claim(
        "blowup-pushpull-degree",
        lambda cfg: _sweep(
            pushforward_correspondence(pullback_correspondence(c)) != c.scale(4)
            for c in _BASIS
        ),
    ),
    Claim("blowup-ch1-paths", lambda cfg: _sweep(_ch1_paths_cases())),
    Claim(
        "blowup-ch1-example",
        lambda cfg: ch1_bundle(_line(1, 0, 0, 0)).coeffs(),
        (2, 0, -1),
    ),
    # discriminant pairings and modularity
    Claim("delta-pairing-two-paths", lambda cfg: _sweep(_delta_pairing_cases())),
    Claim(
        "delta-pairing-cross-zero",
        lambda cfg: tuple(
            delta_pairing_via_chern(_line(1, 0, x, y), _BASIS[0], _BASIS[2])
            for x, y in ((0, 0), (2, -1))
        ),
        (0, 0),
    ),
    Claim(
        "delta-pairing-delta-delta",
        lambda cfg: tuple(delta_pairing_delta_delta(t) for t in (0, -1, 1)),
        (-324, -324, -972),
    ),
    Claim(
        "modularity-window",
        lambda cfg: tuple(t for t in range(-10, 11) if is_modular_bundle(t, _BIG)[0]),
        (-1, 0),
    ),
    Claim("modularity-coefficient", lambda cfg: is_modular_bundle(0, _BIG)[1], 54),
    # Chern numbers, as polynomials in a
    Claim(
        "chern-ch1-fourth",
        lambda cfg: ch1_fourth,
        "2304*a**2 - 1728*a + 324",
    ),
    Claim("chern-ch1sq-c2", lambda cfg: ch1sq_c2, "864*a - 324"),
    Claim(
        "chern-ch1sq-ch2",
        lambda cfg: ch1sq_ch2_derived,
        ch1sq_ch2_stated,
    ),
    Claim("chern-ch1-ch3", lambda cfg: ch1_ch3, "24*a**2 - 45*a + 27/2"),
    Claim(
        "chern-gianni-parts",
        lambda cfg: gianni_decomposition,
        ("27 - 72*a", "-27/2", "36*a", "-9*a", "24*a**2"),
    ),
    Claim("chern-ch2-squared", lambda cfg: ch2_squared, "36*a**2 - 54*a + 27"),
    Claim("chern-ch2-td2", lambda cfg: ch2_td2, "9*a - 45/4"),
    Claim("chern-ch4", lambda cfg: ch4_integral, "3*a**2/2 - 9*a/2 + 9/4"),
    Claim("chern-chi-bundle", lambda cfg: chi_bundle, "3*a**2/2 + 9*a/2 + 3"),
    Claim(
        "chern-chi-values",
        lambda cfg: tuple(chi_bundle(v) for v in (0, 1, 2)),
        (3, 9, 18),
    ),
    Claim("chern-chi-end-constant", lambda cfg: chi_end, "3"),
    Claim(
        "chern-chi-end-decomposition",
        lambda cfg: chi_end_decomposition,
        (48, -63, 18),
    ),
    Claim("chern-chi-end0", lambda cfg: chi_end_traceless, "0"),
    Claim(
        "chern-polynomial-identities",
        lambda cfg: _sweep(not holds for holds in polynomial_identities().values()),
    ),
    Claim("chern-chi-end-sweep", lambda cfg: _sweep(_chi_end_cases())),
    Claim("chern-a-invariant", lambda cfg: a_invariant(), 72),
    Claim("chern-a-invariant-parts", lambda cfg: a_invariant_components(), (16, 54, 12)),
    # walls and ampleness
    Claim(
        "walls-retained",
        lambda cfg: tuple((ss, sv, n, q) for ss, sv, n, q, _ in generate_wall_cases() if q < 0),
        ((0, 1, 1, -6), (0, 2, 2, -6), (0, 3, 3, -6), (2, 4, 2, -6), (4, 5, 1, -6)),
    ),
    Claim(
        "walls-discarded",
        lambda cfg: tuple((ss, sv, q) for ss, sv, _, q, _ in generate_wall_cases() if q >= 0),
        ((2, 3, 2),),
    ),
    Claim("mukai-square", lambda cfg: mukai_square(*MODULI_VECTOR), 6),
    Claim("ample-sweep", lambda cfg: _sweep(_ample_cases(cfg))),
    Claim(
        "ample-witness-small-d",
        lambda cfg: ampleness_text(1, 3, 1),
        "NotAmple (witness 0,1,-1)",
    ),
    Claim("ample-thresholds", lambda cfg: ample_thresholds(1), (15, 30)),
    # fibers and monodromy
    Claim("fiber-degrees-example", lambda cfg: fiber_degrees(1, 9), (864, 216)),
    Claim(
        "fiber-degrees-gram",
        lambda cfg: _sweep(
            fiber_degrees(m, d) != fiber_degrees_gram(m, d) for m, d in _FIBER_DEGREE_FRAME
        ),
    ),
    Claim(
        "fiber-rank-example",
        lambda cfg: subsheaf_rank(SubsheafProfile(1, 2, 1), 1, 9),
        Fraction(13, 9),
    ),
    Claim("fiber-rank-integrality", _rank_integrality_sweep),
    Claim(
        "fiber-margin-table",
        lambda cfg: tuple(destabilizer_margin(p.r2, p.r1pp) for p in destabilizer_profiles()),
        (3, 9, 3, 6, 9, 3, 5),
    ),
    Claim("fiber-margin-minimum", lambda cfg: minimum_destabilizer_margin(), 3),
    Claim("monodromy-order", lambda cfg: len(monodromy_group(2)), 6),
    Claim("monodromy-fixed-point", _monodromy_fixed_point, "1 (zero only)"),
    Claim("monodromy-invariant-coset", _monodromy_invariant_coset, "1 (trivial)"),
    # semi-homogeneous bundles on abelian varieties
    Claim(
        "semihom-example",
        lambda cfg: (is_simple_semihom(4, 2, 3), power_or_text(1, 4, 2)),
        (True, 16),
    ),
    Claim(
        "semihom-criteria-agree",
        lambda cfg: _sweep(
            is_simple_semihom(*p) != is_simple_via_kernel(*p)
            for p in product(range(1, 21), (1, 2, 3), range(1, 21))
        ),
    ),
    Claim(
        "zeppola-values",
        lambda cfg: tuple(zeppola_integral(*p) for p in ((1, 5), (2, 1), (3, 2))),
        (10, 3, 32),
    ),
    # zeppola-oracle: the oracle's 2-form at d0 is d0 times the one at d0 = 1,
    # so its n-th wedge power, and the oracle's value, is d0^n times the value
    # at d0 = 1; so is (n + 1) d0^n. Both sides are polynomials of degree
    # n <= 3 in d0, and the five values d0 = 1 ... 5 prove the identity for
    # every d0 >= 1.
    Claim(
        "zeppola-oracle",
        lambda cfg: _sweep(
            zeppola_oracle(n, d0) != zeppola_integral(n, d0)
            for n in (1, 2, 3)
            for d0 in range(1, 6)
        ),
    ),
    Claim(
        "jh-shapes",
        lambda cfg: jh_decompositions(4, 2, 3),
        ((2, 1, 1),),
    ),
    Claim(
        "forced-stable-two-paths",
        lambda cfg: _sweep(
            forced_stable(s0, c0, e) != forced_stable_via_jh(s0, c0, e)
            for s0 in range(1, 7)
            for e in range(1, 31)
            for c0 in range(1, 12)
            if gcd(s0, c0) == 1
        ),
    ),
    Claim("satollo-transfer", _satollo_transfer, (4, 5, 1, 2)),
)


def _evaluate(claim: Claim, cfg: ReportConfig) -> ClaimRecord:
    """The record of one claim. An entry with no recorded value is a sweep:
    its record is derived and passes with no failure. Any other value is
    compared with the recorded one, and its record is stated; a mismatch is
    a discrepancy only by the difference EXPECTED_DISCREPANCIES pins."""
    value = claim.compute(cfg)
    derived = claim.stated is None
    if derived:
        failures, cases = value
        computed, stated = f"{failures} failures / {cases} cases", f"0 failures / {cases} cases"
    else:
        computed, stated = _s(value), _s(claim.stated)
    pinned = EXPECTED_DISCREPANCIES.get(claim.claim_id)
    if computed == stated:
        verdict = "pass"
    elif pinned is not None and claim.stated - value == pinned:
        verdict = "discrepancy"
    else:
        verdict = "fail"
    provenance = "derived" if derived else "stated"
    return ClaimRecord(claim.claim_id, computed, stated, verdict, provenance)


def run_report(config: ReportConfig | None = None) -> Report:
    """Compute the claims whose id starts with `config.only` (all by default)."""
    cfg = config if config is not None else ReportConfig()
    claims = [c for c in CLAIMS if cfg.only is None or c.claim_id.startswith(cfg.only)]
    if not claims:
        raise ValueError(f"no claim id starts with {cfg.only!r}")
    records = sorted((_evaluate(c, cfg) for c in claims), key=lambda r: r.claim_id)
    summary = {v: 0 for v in VERDICTS}
    for r in records:
        summary[r.verdict] += 1
    return Report(cfg, tuple(records), summary)


def _warnings(report: Report) -> list[str]:
    return [
        f"{r.claim_id}: recorded value {r.stated} differs from recomputed {r.computed}"
        for r in report.records
        if r.verdict == "discrepancy"
    ]


def _fields(record: ClaimRecord) -> dict:
    """The fields of a ClaimRecord, by name."""
    return {name: getattr(record, name) for name in record.__slots__}


def to_json(report: Report) -> str:
    cfg = report.config
    payload = {
        "version": __version__,
        # every field of the config; a_max and md_max change no record and
        # are echoed because the benchmark sends them and checks the echo
        "config": {
            "abar_max": cfg.abar_max,
            "a_max": cfg.a_max,
            "md_max": cfg.md_max,
            "only": cfg.only,
        },
        "records": [_fields(r) for r in report.records],
        "summary": report.summary,
        "warnings": _warnings(report),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_markdown(report: Report) -> str:
    lines = [
        "| claim | computed | stated | verdict | provenance |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in report.records:
        lines.append(
            f"| {r.claim_id} | {r.computed} | {r.stated} | {r.verdict} | {r.provenance} |"
        )
    lines.append("")
    lines.append(
        "summary: "
        + ", ".join(f"{k}={report.summary[k]}" for k in VERDICTS)
    )
    for warning in _warnings(report):
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def exit_code(report: Report) -> int:
    """1 when a record fails, else 0: `_evaluate` gives the verdict
    discrepancy only to a difference that EXPECTED_DISCREPANCIES pins."""
    return int(any(r.verdict == "fail" for r in report.records))
