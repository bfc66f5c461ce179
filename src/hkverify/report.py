"""Verification report: recompute every numeric claim about the rank-4
modular bundle family and compare against the recorded value.

The claim catalogue is the table `CLAIMS`, one `Claim` per record: its
canonical id, a function that recomputes the value and the recorded value.
`run_report` keeps only the claims whose id starts with
`ReportConfig.only` and computes just those. Nothing is sampled: every
sweep runs over a fixed grid or is an exact certificate on a basis, so a
claim computes the same way alone as in the full catalogue. The config has
no sample count or seed: `samples` and `seed` are keyword arguments
accepted and dropped by `ReportConfig`, which checks `samples` first.

Each record carries the claim id, the recomputed value, the recorded value,
a verdict, and the provenance tag, which follows from what the claim
computes:

    verdict    pass | fail | discrepancy
    provenance derived (a `Sweep`: two computations compared case by case)
               | stated (any other value: compared with the recorded one)

The summary also counts a `skipped` verdict, which no record receives; the
key stays so that the report's schema does not change.

Exactly one record is expected to come out as a discrepancy: the recorded
value of ch1^2.ch2 does not match the recomputation. The report keeps both
and never silently repairs the recorded one.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import product
from math import gcd

from . import __version__
from .abelian import (
    IsogenyParams,
    forced_stable,
    forced_stable_via_jh,
    is_simple_semihom,
    jh_decompositions,
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

#: The one claim whose recorded value is known not to match the recomputation.
EXPECTED_DISCREPANCIES = ("chern-ch1sq-ch2",)


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
    """The `only` prefix and the ranges of the box sweeps; the default ranges
    are the ones `hkverify report` always runs. Only library callers set the
    ranges: the benchmark's sweep-grid workload and `tests/test_golden.py`
    use `abar_max=8, a_max=200, md_max=121`.

    `abar_max` bounds `ample-sweep` and `lattice-discriminant-sweep`, `a_max`
    bounds `chern-chi-end-sweep`, and `md_max` bounds `fiber-rank-integrality`,
    which starts at m*d = 9, so `md_max` must be at least 9 and every sweep
    has cases. A range must be an int (a bool is stored as its int) and
    `only` a str or None, else TypeError. No claim samples, but `samples`
    and `seed` are keyword arguments accepted and dropped (`samples` is
    checked first), because the benchmark's worker (`perfbench/child.py`)
    passes both for its sweep-grid workload."""

    __slots__ = ("abar_max", "a_max", "md_max", "only")

    def __init__(
        self, abar_max=3, a_max=50, md_max=41, samples=None, seed=None, only=None
    ) -> None:
        ranges = (abar_max, a_max, md_max)
        if not all(isinstance(v, int) for v in ranges):
            raise TypeError("abar_max, a_max and md_max must be integers")
        if not (only is None or isinstance(only, str)):
            raise TypeError("only must be a string or None")
        if abar_max < 1 or a_max < 1 or (samples is not None and samples < 1):
            raise ValueError("abar_max, a_max and samples must be positive")
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


class Sweep:
    """Outcome of a sweep: failures summed over the cases, and the cases."""

    __slots__ = ("failures", "cases")

    def __init__(self, failures: int, cases: int) -> None:
        self.failures = failures
        self.cases = cases

    def __str__(self) -> str:
        return f"{self.failures} failures / {self.cases} cases"


class Claim:
    """One catalogue entry. `compute(cfg)` returns the recomputed value or a
    `Sweep`; for a sweep, `stated` is the expected number of failures."""

    __slots__ = ("claim_id", "compute", "stated")

    def __init__(self, claim_id: str, compute: Callable[[ReportConfig], object], stated) -> None:
        self.claim_id = claim_id
        self.compute = compute
        self.stated = stated


def _sweep(case_failures: Iterable[int]) -> Sweep:
    """Sweep over cases, given the number of failed checks in each case."""
    counts = list(case_failures)
    return Sweep(sum(counts), len(counts))


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


def _line(p, q, x, y) -> XTwoClass:
    """The line class pullback(mu(p*omegabar + q*gamma) + x*delta) + y*D on X."""
    return XTwoClass(KummerTwoClass(_SMALL, p, q, x), y)


def _ch1_paths_cases():
    for frame in _AFFINE_FRAME:
        line = _line(*frame)
        yield ch1_bundle(line) != ch1_bundle_via_pushforward(line)


def _delta_pairing_cases():
    for alpha, beta, x, y in product(_BASIS, _BASIS, _GRID, _GRID):
        via_chern = delta_pairing_via_chern(_line(1, 0, x, y), alpha, beta)
        yield via_chern != delta_pairing_closed(x - y, alpha, beta)


def _ample_cases(cfg: ReportConfig):
    for abar in range(1, cfg.abar_max + 1):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            for d in range(sep + 1, sep + 201, 2):
                yield is_ample_h(abar, d, m) is not None


def _rank_integrality_sweep(cfg: ReportConfig) -> Sweep:
    profiles = [SubsheafProfile(*ranks) for ranks in product(range(5), repeat=3)]
    return _sweep(
        rank_failures(profile, md)
        for md in range(9, cfg.md_max + 1, 2)
        for profile in profiles
    )


def _monodromy_fixed_point(cfg: ReportConfig) -> str:
    fixed = monodromy_fixed_points()
    return f"{len(fixed)} ({'zero only' if only_zero_fixed(fixed) else 'other'})"


def _monodromy_invariant_coset(cfg: ReportConfig) -> str:
    cosets = invariant_torsion_cosets()
    trivial = only_trivial_coset(cosets)
    return f"{len(cosets)} ({'trivial' if trivial else 'other'})"


def _semihom_criteria_disagree(deg_f: int, n: int, d0: int) -> bool:
    try:
        is_simple_semihom(IsogenyParams(deg_f, n, d0))
    except ArithmeticError:
        return True
    return False


def _satollo_transfer(cfg: ReportConfig) -> tuple[int, ...]:
    model, divisors = satollo_transfer(1, 5)
    return (model.self_omega, model.mixed_d) + divisors


CLAIMS = (
    # lattice
    Claim("lattice-discriminant", lambda cfg: _BIG.discriminant(), -25),
    Claim(
        "lattice-discriminant-sweep",
        lambda cfg: _sweep(
            AbelianSurfaceModel(k * abar, d).discriminant() != -d * d
            for abar in range(1, cfg.abar_max + 1)
            for d in range(1, 22)
            for k in (2, 4)
        ),
        0,
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
        0,
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
            x_quartic(*map(pullback_correspondence, cs)) != 4 * fujiki_integral(*cs)
            for cs in product(_BASIS, repeat=4)
        ),
        0,
    ),
    Claim(
        "blowup-pushpull-degree",
        lambda cfg: _sweep(
            pushforward_correspondence(pullback_correspondence(c)) != c.scale(4)
            for c in _BASIS
        ),
        0,
    ),
    Claim("blowup-ch1-paths", lambda cfg: _sweep(_ch1_paths_cases()), 0),
    Claim(
        "blowup-ch1-example",
        lambda cfg: ch1_bundle(_line(1, 0, 0, 0)).coeffs(),
        (2, 0, -1),
    ),
    # discriminant pairings and modularity
    Claim("delta-pairing-two-paths", lambda cfg: _sweep(_delta_pairing_cases()), 0),
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
        0,
    ),
    Claim(
        "chern-chi-end-sweep",
        lambda cfg: _sweep(
            (chi_end(v) != 3 or chi_end_traceless(v) != 0)
            + (8 * ch4_integral(v) - 2 * ch1_ch3(v) + ch2_squared(v) != 18)
            for v in range(1, cfg.a_max + 1)
        ),
        0,
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
    Claim("ample-sweep", lambda cfg: _sweep(_ample_cases(cfg)), 0),
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
            fiber_degrees(m, d) != fiber_degrees_gram(m, d)
            for m in (1, 2, 3)
            for d in range(1, 14)
            if m * d > 1
        ),
        0,
    ),
    Claim(
        "fiber-rank-example",
        lambda cfg: subsheaf_rank(SubsheafProfile(1, 2, 1), 1, 9),
        Fraction(13, 9),
    ),
    Claim("fiber-rank-integrality", _rank_integrality_sweep, 0),
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
        lambda cfg: is_simple_semihom(IsogenyParams(4, 2, 3)),
        (True, 16),
    ),
    Claim(
        "semihom-criteria-agree",
        lambda cfg: _sweep(
            _semihom_criteria_disagree(*params)
            for params in product(range(1, 21), (1, 2, 3), range(1, 21))
        ),
        0,
    ),
    Claim(
        "zeppola-values",
        lambda cfg: tuple(zeppola_integral(*p) for p in ((1, 5), (2, 1), (3, 2))),
        (10, 3, 32),
    ),
    Claim(
        "zeppola-oracle",
        lambda cfg: _sweep(
            zeppola_oracle(n, d0) != zeppola_integral(n, d0)
            for n in (1, 2, 3)
            for d0 in range(1, 6)
        ),
        0,
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
        0,
    ),
    Claim("satollo-transfer", _satollo_transfer, (4, 5, 1, 2)),
)


def _evaluate(claim: Claim, cfg: ReportConfig) -> ClaimRecord:
    """The record of one claim. A sweep compares two computations case by
    case, so its record is derived; any other value is compared with the
    recorded one, and its record is stated."""
    value = claim.compute(cfg)
    derived = isinstance(value, Sweep)
    stated = Sweep(claim.stated, value.cases) if derived else claim.stated
    computed, stated = _s(value), _s(stated)
    if computed == stated:
        verdict = "pass"
    elif claim.claim_id in EXPECTED_DISCREPANCIES:
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


def _fields(value) -> dict:
    """The fields of a ReportConfig or a ClaimRecord, by name."""
    return {name: getattr(value, name) for name in value.__slots__}


def to_json(report: Report) -> str:
    payload = {
        "version": __version__,
        "config": _fields(report.config),
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
    discrepancy only to EXPECTED_DISCREPANCIES."""
    return int(any(r.verdict == "fail" for r in report.records))
