"""Verification report: recompute every numeric claim about the rank-4
modular bundle family and compare against the recorded value.

The claim catalogue is the table `CLAIMS`, one `Claim` per record: its
canonical id, a function that recomputes the value and the recorded value,
if any. `run_report` keeps only the claims whose id starts with
`ReportConfig.only` and computes just those. Nothing is sampled: every
sweep is an exact certificate, one identity of Polys on symbolic inputs or,
where the inputs are int parameters, a frame that a degree bound, a size
bound or the residue classes make enough, so a claim computes the same way
alone as in the full catalogue. The config has no sample count or seed:
`samples` and `seed` are keyword arguments accepted and dropped by
`ReportConfig`, which checks `samples` first.

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

from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import product
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
    ch2_pairing,
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
)
from .fiber import (
    SubsheafProfile,
    _degrees,
    _gram_degrees,
    _subsheaf_rank_raw,
    _subsheaf_rank_weighted_raw,
    destabilizer_margin,
    destabilizer_profiles,
    fiber_degrees,
    integer_rank_criterion,
    invariant_torsion_cosets,
    minimum_destabilizer_margin,
    monodromy_fixed_points,
    monodromy_group,
    only_trivial_coset,
    only_zero_fixed,
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
    Poly,
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

    Every sweep is an exact certificate. Only `ample-sweep` reads a range:
    its residue frame, one d per (abar, m), runs abar = 1 ... `abar_max`.
    Nothing else depends on the config: the identities of Polys (the five
    two-path records on symbolic classes, `chern-polynomial-identities`,
    `chern-chi-end-sweep`, `fiber-degrees-gram` and
    `fiber-rank-integrality`, whose integrality half runs at m*d = 9), the
    degree-bound frames (`lattice-discriminant-sweep`, `zeppola-oracle`)
    and the residue frames (`forced-stable-two-paths`,
    `semihom-criteria-agree`). So `a_max` and `md_max` change no record.
    They stay, validated and echoed in the JSON config block, because the
    benchmark sends them; `md_max` must still be at least 9, the m*d at
    which the rank integrality is decided. A range must be an
    int (a bool is stored as its int), `samples` an int or None and `only` a
    str or None, else TypeError. No claim samples, but `samples` and `seed`
    are keyword arguments accepted and dropped (`samples` is checked first),
    because the benchmark's worker (`perfbench/child.py`) passes both for
    its sweep-grid workload."""

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


# Symbolic identities: each two-path record on classes is one identity of
# Polys, every class coefficient and twist its own variable, so it holds at
# every rational input. Generic classes of the doubled model serve four
# records (delta-pairing-two-paths with a symbolic twist (x, y) as well), and
# the line class _LINE with (p, q, x, y) symbolic serves blowup-ch1-paths.
_VARIABLES = tuple(Poly((0, 1), i) for i in range(15))  # a, then 14 others
_GENERIC = tuple(KummerTwoClass(_BIG, *_VARIABLES[i : i + 3]) for i in (1, 4, 7, 10))


# Symbolic md: every fiber kernel reads (m, d) only through md = m*d and
# takes a Poly md, so fiber-degrees-gram is one identity in md, and the two
# rank kernels of fiber-rank-integrality agree once their cross products
# agree as Polys in (s, r2, md), s = r1' + r1''.
_S, _R2, _MD = _VARIABLES[1:4]
# the 125 profiles (r1', r1'', r2) in 0 ... 4, built once at import
_RANK_PROFILES = tuple(SubsheafProfile(*ranks) for ranks in product(range(5), repeat=3))


def _rank_cases():
    num, den = _subsheaf_rank_raw(_S, _R2, _MD)
    w_num, w_den = _subsheaf_rank_weighted_raw(_S, _R2, *_degrees(_MD))
    yield w_num * den != num * w_den
    # The integrality half: with e = s - 2 r2, |e| <= 8, the rank is
    # (s md - e)/(2 md). For md > 8 it is an integer exactly when e = 0: an
    # integer k gives e = (s - 2k) md, a multiple of md smaller than md in
    # size. So neither integer_rank_criterion (e = 0) nor the integrality of
    # the rank depends on md > 8, and md = 9 decides each profile.
    for p in _RANK_PROFILES:
        num, den = _subsheaf_rank_raw(p.r1p + p.r1pp, p.r2, 9)
        yield integer_rank_criterion(p, 1, 9) != (num % den == 0)


# Degree-bound frame. lattice-discriminant-sweep keeps one because the
# model's omegabar^2 and d are int parameters. The determinant of
# [[x, d], [d, 0]], x = omegabar^2, has degree <= 1 in x and <= 2 in d, and
# so has -d^2; their difference vanishes on the 2x3 grid {2, 4} x {1, 2, 3},
# so it vanishes at every x and d (a polynomial of degree <= n1 in x and
# <= n2 in d that vanishes on an (n1 + 1) x (n2 + 1) grid is zero).
_DISCRIMINANT_FRAME = tuple(product((2, 4), (1, 2, 3)))


# Residue frames. A check that reads its integer inputs only through residues
# (or through which primes divide them) takes one value per residue class, so
# one case per class proves it for every input.
#
# forced-stable-two-paths: forced_stable reads e only through gcd(s0, e) and
# never reads c0. forced_stable_via_jh reads jh_decompositions(r, a, e) with
# r = s0^2 and a = s0 c0, and only its multiplicities m. There e enters
# through g = gcd(r0, e) with r0 | r, so its period is s0^2; m = r g / r0^2
# does not read c0. Adding s0 to c0 adds s0^2 g to a g, which
# m r0 = s0^2 g / r0 divides, and adds r0 to b0, which keeps gcd(r0, b0): so
# the shapes' m, and the verdict, have period s0 in c0. The frame, s0 <= 6,
# c0 in 1 ... s0 coprime to s0 and e in 1 ... s0^2, proves the identity for
# every integer c0 and every e >= 1 at s0 <= 6.
_FORCED_STABLE_FRAME = tuple(
    (s0, c0, e)
    for s0 in range(1, 7)
    for c0 in range(1, s0 + 1)
    if gcd(s0, c0) == 1
    for e in range(1, s0 * s0 + 1)
)


# semihom-criteria-agree: is_simple_semihom is gcd(f, (n + 1) d0) = 1.
# is_simple_via_kernel takes (n + 1)^2 and d0^(2k), k >= 1, modulo f, and
# gcd(f, x mod f) = gcd(f, x). So both read n and d0 only through the set S
# of primes of f that divide n + 1 and the set T that divide d0. For each
# f <= 20 the frame takes one case per pair (S, T): n + 1 the product of S
# (rad(f) + 1, prime to f, when S is empty) and d0 the product of T, so
# sum 4^omega(f) = 161 cases prove the identity for every n and d0 >= 1 at
# f <= 20. The products of the subsets of f's primes are its squarefree
# divisors, and rad(f) is the largest of them.
def _semihom_frame() -> tuple[tuple[int, int, int], ...]:
    frame = []
    for f in range(1, 21):
        divisors = [
            k for k in range(1, f + 1) if f % k == 0 and all(k % (p * p) for p in range(2, k))
        ]
        for s, t in product(divisors, repeat=2):
            frame.append((f, s - 1 if s > 1 else divisors[-1], t))
    return tuple(frame)


_SEMIHOM_FRAME = _semihom_frame()


def _line(p, q, x, y) -> XTwoClass:
    """The line class pullback(mu(p*omegabar + q*gamma) + x*delta) + y*D on X."""
    return XTwoClass(KummerTwoClass(_SMALL, p, q, x), y)


_LINE = _line(*_VARIABLES[1:5])


# ample-sweep: is_ample_h reads d only through num % d == 0, with
# num = c - 4 abar p for c in 1 ... 3 // m and p in {0, 1} (the quotient and
# the witness's model are built only once d divides num). So
# 0 < |num| <= max(3, 4 abar - 1): no d > max(3, 4 abar - 1) divides num, and
# the verdict is the same at every such d. The separating threshold
# sep = 24 abar^2 + 6 abar is at least 30 and above that bound, so the one odd
# d = sep + 1 per (abar, m) decides every d > sep, the old box
# sep < d <= sep + 200 included.
def _ample_cases(cfg: ReportConfig):
    for abar in range(1, cfg.abar_max + 1):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            yield is_ample_h(abar, sep + 1, m) is not None


def _chern_identity_cases():
    # chern-polynomial-identities: the line class pullback(mu(omegabar)) on the
    # symbolic halved model (2a, 5) gives h = ch1_bundle(line) with
    # q(h) = 16a - 6. int h^4, int h^2.c2 and int ch2.h^2 (ch2_pairing, on X)
    # are Polys in a, compared with the chern entries once for every a; the
    # class has no gamma part, so d never enters.
    line = XTwoClass(KummerTwoClass(AbelianSurfaceModel(2 * SYMBOL_A, 5), 1, 0, 0), 0)
    h = ch1_bundle(line)
    yield (
        (fujiki_integral(h, h, h, h) != ch1_fourth)
        + (c2_pair(h, h) != ch1sq_c2)
        + (ch2_pairing(line, h, h) != ch1sq_ch2_derived)
    )


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
        lambda cfg: _sweep((fujiki_integral(*_GENERIC) != fujiki_symmetrized(*_GENERIC),)),
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
    Claim(
        "blowup-pullback-quartic",
        lambda cfg: _sweep(
            (
                x_quartic(*map(pullback_correspondence, _GENERIC))
                != 4 * fujiki_integral(*_GENERIC),
            )
        ),
    ),
    Claim(
        "blowup-pushpull-degree",
        lambda cfg: _sweep(
            pushforward_correspondence(pullback_correspondence(c)) != c.scale(4)
            for c in _GENERIC[:1]
        ),
    ),
    Claim(
        "blowup-ch1-paths",
        lambda cfg: _sweep((ch1_bundle(_LINE) != ch1_bundle_via_pushforward(_LINE),)),
    ),
    Claim(
        "blowup-ch1-example",
        lambda cfg: ch1_bundle(_line(1, 0, 0, 0)).coeffs(),
        (2, 0, -1),
    ),
    # discriminant pairings and modularity
    Claim(
        "delta-pairing-two-paths",
        lambda cfg: _sweep(
            (
                delta_pairing_via_chern(_line(1, 0, *_VARIABLES[13:]), *_GENERIC[:2])
                != delta_pairing_closed(_VARIABLES[13] - _VARIABLES[14], *_GENERIC[:2]),
            )
        ),
    ),
    Claim(
        "delta-pairing-cross-zero",
        # mu(omegabar) against delta, the first and last basis classes
        lambda cfg: tuple(
            delta_pairing_via_chern(_line(1, 0, x, y), *basis(_BIG)[::2])
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
        lambda cfg: _sweep(_chern_identity_cases()),
    ),
    # chi(End) = 3, chi(End0) = 0 and 8 ch4 - 2 ch1.ch3 + ch2^2 = 18, as Polys
    Claim(
        "chern-chi-end-sweep",
        lambda cfg: _sweep(
            (
                (chi_end != 3 or chi_end_traceless != 0)
                + (8 * ch4_integral - 2 * ch1_ch3 + ch2_squared != 18),
            )
        ),
    ),
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
        lambda cfg: _sweep((_degrees(_MD) != _gram_degrees(_MD),)),
    ),
    Claim(
        "fiber-rank-example",
        lambda cfg: subsheaf_rank(SubsheafProfile(1, 2, 1), 1, 9),
        Fraction(13, 9),
    ),
    Claim("fiber-rank-integrality", lambda cfg: _sweep(_rank_cases())),
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
            is_simple_semihom(*p) != is_simple_via_kernel(*p) for p in _SEMIHOM_FRAME
        ),
    ),
    Claim(
        "zeppola-values",
        lambda cfg: tuple(zeppola_integral(*p) for p in ((1, 5), (2, 1), (3, 2))),
        (10, 3, 32),
    ),
    # zeppola-oracle keeps a frame because its oracle divides an int by n!.
    # The oracle's 2-form at d0 is d0 times the one at d0 = 1, so its n-th
    # wedge power, and the oracle's value, is d0^n times the value at
    # d0 = 1; so is (n + 1) d0^n. Both sides are polynomials of degree n in
    # d0, and the n + 1 values d0 = 1 ... n + 1 prove the identity for every
    # d0 >= 1, at each n <= 3.
    Claim(
        "zeppola-oracle",
        lambda cfg: _sweep(
            zeppola_oracle(n, d0) != zeppola_integral(n, d0)
            for n in (1, 2, 3)
            for d0 in range(1, n + 2)
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
            forced_stable(*p) != forced_stable_via_jh(*p) for p in _FORCED_STABLE_FRAME
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


#: One record of `to_json`, its keys in sorted order.
_RECORD_JSON = (
    "    {\n"
    '      "claim_id": %s,\n'
    '      "computed": %s,\n'
    '      "provenance": %s,\n'
    '      "stated": %s,\n'
    '      "verdict": %s\n'
    "    }"
)


def _json_block(open_: str, items: list[str], close: str) -> str:
    """A container of the top-level object in json's indent=2 layout, from
    its items already written as indented lines; empty, it is open_ + close."""
    return f"{open_}\n" + ",\n".join(items) + f"\n  {close}" if items else open_ + close


def to_json(report: Report) -> str:
    """The report as the bytes of json.dumps(payload, indent=2,
    sort_keys=True) + "\n", for the payload {config, records, summary,
    version, warnings}, where config holds every field of the ReportConfig
    and each record every field of its ClaimRecord. The fixed schema is
    written out by hand, keys in sorted order, with every string through
    json's C string encoder: json.dumps with an indent runs json's
    pure-Python encoder, about 4x slower on this report. The encoder is
    imported here, so a process that renders only markdown never loads the
    json package."""
    from json.encoder import encode_basestring_ascii as _json_text

    cfg = report.config
    records = [
        _RECORD_JSON
        % tuple(map(_json_text, (r.claim_id, r.computed, r.provenance, r.stated, r.verdict)))
        for r in report.records
    ]
    summary = [f"    {_json_text(k)}: {v}" for k, v in sorted(report.summary.items())]
    warnings = [f"    {_json_text(w)}" for w in _warnings(report)]
    only = "null" if cfg.only is None else _json_text(cfg.only)
    # a_max and md_max change no record and are echoed because the benchmark
    # sends them and checks the echo
    return (
        "{\n"
        '  "config": {\n'
        f'    "a_max": {cfg.a_max},\n'
        f'    "abar_max": {cfg.abar_max},\n'
        f'    "md_max": {cfg.md_max},\n'
        f'    "only": {only}\n'
        "  },\n"
        f'  "records": {_json_block("[", records, "]")},\n'
        f'  "summary": {_json_block("{", summary, "}")},\n'
        f'  "version": {_json_text(__version__)},\n'
        f'  "warnings": {_json_block("[", warnings, "]")}\n'
        "}\n"
    )


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
