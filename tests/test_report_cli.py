"""The report builder and the command line front end: record schema,
determinism, filtering, verdict bookkeeping, and the subcommand outputs."""

import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod
from pathlib import Path

import pytest

import hkverify
import hkverify.abelian
import hkverify.blowup
import hkverify.chern
import hkverify.cli
import hkverify.fiber
import hkverify.kummer
import hkverify.lattice
import hkverify.report
from hkverify.abelian import forced_stable, jh_decompositions, zeppola_integral
from hkverify.cli import _CHERN_TABLE, main
from hkverify.fiber import (
    SubsheafProfile,
    fiber_degrees,
    integer_rank_criterion,
    rank_failures,
    subsheaf_rank,
)
from hkverify.kummer import (
    C2_PAIR_COEFF,
    KummerTwoClass,
    bbf,
    fujiki_integral,
    mu_pair,
    riemann_roch,
    riemann_roch_from_square,
)
from hkverify.lattice import AbelianSurfaceModel, Poly, digit_limit
from hkverify.walls import ample_thresholds, is_ample_h
from hkverify.report import (
    CLAIMS,
    EXPECTED_DISCREPANCIES,
    ClaimRecord,
    Report,
    ReportConfig,
    exit_code,
    run_report,
    to_json,
    to_markdown,
)


def _rows(records) -> list[tuple[str, ...]]:
    """The field values of each record, in ClaimRecord.__slots__ order."""
    return [tuple(getattr(r, f) for f in ClaimRecord.__slots__) for r in records]


def test_report_is_deterministic(default_report):
    fresh = run_report()
    assert to_json(fresh) == to_json(default_report)
    assert to_markdown(fresh) == to_markdown(default_report)


def test_report_record_count_and_order(default_report):
    ids = [r.claim_id for r in default_report.records]
    assert len(ids) >= 30
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_report_summary_counts(default_report):
    report = default_report
    assert report.summary["fail"] == 0
    assert report.summary["discrepancy"] == 1
    assert report.summary["skipped"] == 0
    assert report.summary["pass"] == len(report.records) - 1


def test_single_discrepancy_is_the_recorded_chern_number(default_report):
    discrepancies = [r for r in default_report.records if r.verdict == "discrepancy"]
    assert len(discrepancies) == 1
    rec = discrepancies[0]
    assert rec.claim_id == "chern-ch1sq-ch2"
    assert rec.claim_id in EXPECTED_DISCREPANCIES
    assert rec.computed == "288*a**2 - 324*a + 81"
    assert rec.stated == "576*a**2 - 540*a + 81"
    assert rec.provenance == "stated"


def test_json_schema(default_report):
    payload = json.loads(to_json(default_report))
    assert set(payload) == {"version", "config", "records", "summary", "warnings"}
    assert payload["version"]
    assert set(payload["config"]) == {"abar_max", "a_max", "md_max", "only"}
    for record in payload["records"]:
        assert set(record) == {"claim_id", "computed", "stated", "verdict", "provenance"}
        assert record["verdict"] in ("pass", "fail", "discrepancy", "skipped")
        assert record["provenance"] in ("stated", "derived")
    assert sum(payload["summary"].values()) == len(payload["records"])
    assert payload["warnings"] == [
        "chern-ch1sq-ch2: recorded value 576*a**2 - 540*a + 81"
        " differs from recomputed 288*a**2 - 324*a + 81"
    ]


def _json_dumps(report) -> str:
    """The report through json.dumps: the payload `to_json` writes by hand,
    built as a dict, with every config and record field."""
    cfg = report.config
    payload = {
        "version": hkverify.__version__,
        "config": {
            "abar_max": cfg.abar_max,
            "a_max": cfg.a_max,
            "md_max": cfg.md_max,
            "only": cfg.only,
        },
        "records": [
            {name: getattr(r, name) for name in ClaimRecord.__slots__} for r in report.records
        ],
        "summary": report.summary,
        "warnings": [
            f"{r.claim_id}: recorded value {r.stated} differs from recomputed {r.computed}"
            for r in report.records
            if r.verdict == "discrepancy"
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "config",
    [
        ReportConfig(),
        ReportConfig(abar_max=8, a_max=200, md_max=121),
        # one prefix per claim family; all but chern- hold no discrepancy,
        # so their warnings are []
        *(
            ReportConfig(only=prefix)
            for prefix in (
                "lattice-", "fujiki-", "blowup-", "delta-", "chern-", "ample-", "fiber-", "semihom-"
            )
        ),
    ],
    ids=lambda cfg: cfg.only or f"abar_max={cfg.abar_max}",
)
def test_to_json_writes_the_bytes_of_json_dumps(config):
    report = run_report(config)
    assert to_json(report) == _json_dumps(report)


def test_to_json_escapes_strings_as_json_dumps_does():
    # a prefix no claim has, so the report is built by hand around real
    # records: quotes, backslashes, control and non-ASCII characters are
    # escaped the way json.dumps escapes them, with ensure_ascii
    records = run_report(ReportConfig(only="fujiki-")).records
    record = ClaimRecord('q"\\\n', "\u00e9\t", "\U0001f600", "pass", "stated")
    config = ReportConfig(only='fujiki-"\\\u00e9\n')
    summary = {"pass": 3, "fail": 0, "discrepancy": 0, "skipped": 0}
    report = Report(config, (*records, record), summary)
    assert to_json(report) == _json_dumps(report)
    empty = Report(config, (), dict.fromkeys(summary, 0))
    assert to_json(empty) == _json_dumps(empty)


def test_only_prefix_filter(monkeypatch):
    # claims the prefix drops are never computed, so their primitives may fail
    def unreachable(*args):
        raise RuntimeError("fujiki_symmetrized is not needed for chern- claims")

    monkeypatch.setattr(hkverify.report, "fujiki_symmetrized", unreachable)
    report = run_report(ReportConfig(only="chern-"))
    assert report.records
    assert all(r.claim_id.startswith("chern-") for r in report.records)


@pytest.mark.parametrize("prefix", sorted({c.claim_id.split("-")[0] + "-" for c in CLAIMS}))
def test_only_prefix_matches_the_full_report(default_report, prefix):
    # no claim samples or shares state with another, so a claim computed
    # alone yields the record it has in the full report
    alone = run_report(ReportConfig(only=prefix))
    expected = [r for r in default_report.records if r.claim_id.startswith(prefix)]
    assert expected
    assert _rows(alone.records) == _rows(expected)


def test_only_prefix_matching_nothing_is_an_error(capsys):
    with pytest.raises(ValueError, match="no claim id starts with 'zzz'"):
        run_report(ReportConfig(only="zzz"))
    assert main(["report", "--only", "zzz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no claim id starts with 'zzz'\n"


def _symmetrized_missing_one_ordering(*bs):
    orderings = list(permutations(range(4)))[1:]
    return Fraction(3, 8) * sum(bbf(bs[a], bs[b]) * bbf(bs[c], bs[d]) for a, b, c, d in orderings)


def _closed_with_wrong_linear_term(t, alpha, beta):
    # 4t -> 5t in the mu-mu coefficient 18 * (4t^2 + 4t + 3)
    t = Fraction(t)
    mu_mu = 18 * (4 * t * t + 5 * t + 3) * mu_pair(alpha, beta)
    return mu_mu + hkverify.blowup.delta_pairing_delta_delta(t) * alpha.x * beta.x


def _x_quartic_with_extra_term(c1, c2, c3, c4):
    true = hkverify.blowup.x_quartic(c1, c2, c3, c4)
    return true + c1.t * c2.t * c3.t * c4.base.x


def _ch1_with_constant_plus_one(line):
    # the constant -1 of the delta coefficient 2x + 2y - 1 turned into +1
    true = hkverify.blowup.ch1_bundle(line)
    return true + KummerTwoClass(true.model, 0, 0, 2)


def _ch1_with_wrong_gamma_coefficient(line):
    # 4q -> 3q in the gamma coefficient: wrong only where q != 0
    true = hkverify.blowup.ch1_bundle(line)
    return true - KummerTwoClass(true.model, 0, line.base.q, 0)


def _delta_closed_as_c2(t, alpha, beta):
    # Delta proportional to q for every twist, not just t in {0, -1}
    return C2_PAIR_COEFF * bbf(alpha, beta)


_ch2_pairing = hkverify.blowup.ch2_pairing


def _ch2_with_mu_delta_cross_term(line, alpha, beta):
    # ch2 gains the symmetric mu(omegabar).delta cross term, so Delta does too
    true = _ch2_pairing(line, alpha, beta)
    return true + alpha.p * beta.x + alpha.x * beta.p


_subsheaf_rank_weighted_raw = hkverify.fiber._subsheaf_rank_weighted_raw


def _weighted_rank_off_beyond_md_11(profile, deg_v, deg_delta):
    # the numerator gains r2 (md - 9)(md - 11), with md = deg Delta / 24: a
    # wrong kernel whose cross products keep degree <= 3 in md, right at the
    # frame's first two rows and wrong at its last two
    num, den = _subsheaf_rank_weighted_raw(profile, deg_v, deg_delta)
    md = deg_delta // 24
    return (num + profile.r2 * (md - 9) * (md - 11), den)


def _discriminant_off_at_d_3(model):
    # + omegabar^2 (d - 1)(d - 2)/2: degree 1 in omegabar^2 and 2 in d, right
    # at d = 1, 2
    true = model.gram().discriminant()
    return true + model.self_omega * (model.mixed_d - 1) * (model.mixed_d - 2) // 2


def _fiber_degrees_off_at_md_4(m, d):
    # the V degree gains (md - 2)(md - 3): still degree 2 in md, right at
    # md = 2, 3
    deg_v, deg_delta = fiber_degrees(m, d)
    return (deg_v + (m * d - 2) * (m * d - 3), deg_delta)


def _forced_stable_reading_c0(s0, c0, e):
    # gcd(s0, e) -> gcd(s0, c0 + e): a criterion that reads c0
    return gcd(s0, c0 + e) == 1


def _zeppola_off_at_d0_n_plus_1(n, d0):
    # (n + 1) d0^n gains (d0 - 1) ... (d0 - n): still degree n in d0, right
    # at d0 = 1 ... n and wrong only at the frame's last value d0 = n + 1
    return zeppola_integral(n, d0) + prod(d0 - k for k in range(1, n + 1))


def _thresholds_with_separating_zero(abar):
    # a separating threshold of 0 puts the frame at d = 1, which divides
    # every num, so the c = 1, p = 0 candidate is a witness
    wall_thr, _ = ample_thresholds(abar)
    return (wall_thr, 0)


def _is_ample_h_without_divisibility_guard(abar, d, m):
    # is_ample_h with `num % d == 0 and` dropped: num // d is then a floor,
    # not a solution q of 4 abar p + q d = c
    four_abar = 4 * abar
    for c in range(1, 3 // m + 1):
        for p in (0, 1):
            num = c - four_abar * p
            if p * (c + num) in (0, 2):
                return KummerTwoClass(AbelianSurfaceModel(four_abar, d), p, num // d, -1)
    return None


def _bbf_with_delta_square_minus_5(a, b):
    # q(delta) = -6 -> -5, in the oracle's pairings only: fujiki_integral
    # writes its own pairings out, so fujiki-symmetrization compares two
    # separately written formulas
    return mu_pair(a, b) - 5 * a.x * b.x


_a = hkverify.lattice.SYMBOL_A
_CHI_END_PARTS = hkverify.chern.chi_end_decomposition


@pytest.mark.parametrize(
    ("module", "name", "wrong", "claim_id", "computed"),
    [
        (
            hkverify.report,
            "fujiki_symmetrized",
            _symmetrized_missing_one_ordering,
            "fujiki-symmetrization",
            "16 failures / 81 cases",
        ),
        (
            hkverify.kummer,
            "bbf",
            _bbf_with_delta_square_minus_5,
            "fujiki-symmetrization",
            "19 failures / 81 cases",
        ),
        (
            hkverify.report,
            "delta_pairing_closed",
            _closed_with_wrong_linear_term,
            "delta-pairing-two-paths",
            "12 failures / 54 cases",
        ),
        (
            hkverify.report,
            "x_quartic",
            _x_quartic_with_extra_term,
            "blowup-pullback-quartic",
            "1 failures / 81 cases",
        ),
        (
            hkverify.report,
            "ch1_bundle",
            _ch1_with_constant_plus_one,
            "blowup-ch1-paths",
            "5 failures / 5 cases",
        ),
        (
            hkverify.report,
            "ch1_bundle",
            _ch1_with_wrong_gamma_coefficient,
            "blowup-ch1-paths",
            "1 failures / 5 cases",
        ),
        (
            hkverify.blowup,
            "delta_pairing_closed",
            _delta_closed_as_c2,
            "modularity-window",
            "(" + ", ".join(str(t) for t in range(-10, 11)) + ")",
        ),
        (
            hkverify.blowup,
            "ch2_pairing",
            _ch2_with_mu_delta_cross_term,
            "delta-pairing-cross-zero",
            "(-8, -8)",
        ),
        (
            hkverify.report,
            "chi_end_traceless",
            hkverify.chern.chi_end_traceless + 1,
            "chern-chi-end-sweep",
            "1 failures / 1 cases",
        ),
        (
            hkverify.report,
            "chi_end_decomposition",
            (*_CHI_END_PARTS[:2], _CHI_END_PARTS[2] + 1),
            "chern-chi-end-decomposition",
            "(48, -63, 19)",
        ),
        # the degree-bound certificates: each wrong formula stays inside the
        # certificate's degree bound and agrees with the right one on part
        # of the frame
        (
            hkverify.fiber,
            "_subsheaf_rank_weighted_raw",
            _weighted_rank_off_beyond_md_11,
            "fiber-rank-integrality",
            "200 failures / 500 cases",
        ),
        (
            AbelianSurfaceModel,
            "discriminant",
            _discriminant_off_at_d_3,
            "lattice-discriminant-sweep",
            "2 failures / 6 cases",
        ),
        (
            hkverify.report,
            "fiber_degrees",
            _fiber_degrees_off_at_md_4,
            "fiber-degrees-gram",
            "1 failures / 3 cases",
        ),
        # the polynomial identities in a: each wrong entry agrees with the
        # right one at a = 1, 2 (and 3), and differs from it as a Poly
        (
            hkverify.report,
            "ch1_ch3",
            hkverify.chern.ch1_ch3 + (_a - 1) * (_a - 2),
            "chern-chi-end-sweep",
            "1 failures / 1 cases",
        ),
        # degree 3: a sample frame read off the degree of the entries must
        # widen to a = 1 ... 4 to catch it; a comparison of Polys needs none
        (
            hkverify.report,
            "ch4_integral",
            hkverify.chern.ch4_integral + (_a - 1) * (_a - 2) * (_a - 3),
            "chern-chi-end-sweep",
            "1 failures / 1 cases",
        ),
        # degree 3 on the chern side only: a frame a = 1, 2, 3 bounded by the
        # degree of the X side passed it
        (
            hkverify.report,
            "ch1_fourth",
            hkverify.chern.ch1_fourth + (_a - 1) * (_a - 2) * (_a - 3),
            "chern-polynomial-identities",
            "1 failures / 1 cases",
        ),
        # a wrong intersection constant moves the X path, not the chern
        # entries, which were built from the right ones at import
        (
            hkverify.kummer,
            "C2_PAIR_COEFF",
            hkverify.kummer.C2_PAIR_COEFF + 1,
            "chern-polynomial-identities",
            "1 failures / 1 cases",
        ),
        (
            hkverify.kummer,
            "DELTA_SQUARE",
            hkverify.kummer.DELTA_SQUARE + 1,
            "chern-polynomial-identities",
            "3 failures / 1 cases",
        ),
        (
            hkverify.blowup,
            "C2_AMBIENT",
            hkverify.blowup.C2_AMBIENT + 1,
            "chern-polynomial-identities",
            "1 failures / 1 cases",
        ),
        (
            hkverify.blowup,
            "V_PAIR_COEFF",
            hkverify.blowup.V_PAIR_COEFF + 1,
            "chern-polynomial-identities",
            "1 failures / 1 cases",
        ),
        (
            hkverify.report,
            "forced_stable",
            _forced_stable_reading_c0,
            "forced-stable-two-paths",
            "136 failures / 227 cases",
        ),
        (
            hkverify.report,
            "zeppola_integral",
            _zeppola_off_at_d0_n_plus_1,
            "zeppola-oracle",
            "3 failures / 9 cases",
        ),
        (
            hkverify.report,
            "ample_thresholds",
            _thresholds_with_separating_zero,
            "ample-sweep",
            "9 failures / 9 cases",
        ),
        (
            hkverify.report,
            "is_ample_h",
            _is_ample_h_without_divisibility_guard,
            "ample-sweep",
            "9 failures / 9 cases",
        ),
    ],
    ids=[
        "symmetrized-oracle",
        "bbf-in-the-oracle",
        "delta-closed-form",
        "x-quartic",
        "ch1-constant",
        "ch1-gamma",
        "modularity-window",
        "cross-zero",
        "chi-end-traceless",
        "chi-end-third-summand",
        "rank-beyond-md-11",
        "discriminant-at-d-3",
        "fiber-degree-at-md-4",
        "ch1-ch3-at-a-3",
        "ch4-cubic",
        "ch1-fourth-cubic",
        "c2-pair-coeff",
        "delta-square",
        "c2-ambient",
        "v-pair-coeff",
        "forced-stable-reads-c0",
        "zeppola-at-d0-n-plus-1",
        "ample-frame-at-d-1",
        "ample-without-divisibility",
    ],
)
def test_basis_certificates_catch_wrong_formulas(
    monkeypatch, module, name, wrong, claim_id, computed
):
    monkeypatch.setattr(module, name, wrong)
    report = run_report(ReportConfig(only=claim_id))
    (record,) = report.records
    assert (record.claim_id, record.computed, record.verdict) == (claim_id, computed, "fail")
    assert exit_code(report) == 1


def _rank_failures_in_fractions(profile, md):
    # the rank sweep's checks written with plain Fractions, no int kernel
    s = profile.r1p + profile.r1pp
    rank = Fraction(s, 2) - Fraction(s - 2 * profile.r2, 2 * md)
    criterion_wrong = integer_rank_criterion(profile, 1, md) != (rank.denominator == 1)
    deg_v, deg_delta = fiber_degrees(1, md)
    weighted = Fraction(s * deg_v + profile.r2 * deg_delta, 2 * deg_v + deg_delta)
    return criterion_wrong + (weighted != rank)


def test_rank_failures_match_the_fraction_checks():
    # every profile at every md of the sweep-grid range, odd and even
    profiles = [SubsheafProfile(*ranks) for ranks in product(range(5), repeat=3)]
    for md in range(9, 122):
        expected = [_rank_failures_in_fractions(profile, md) for profile in profiles]
        assert list(rank_failures(profiles, md)) == expected, md


def _weighted_rank_with_wrong_denominator(profile, deg_v, deg_delta):
    # 2 deg V + deg Delta -> 2 deg V + deg Delta + 1
    s = profile.r1p + profile.r1pp
    return (s * deg_v + profile.r2 * deg_delta, 2 * deg_v + deg_delta + 1)


def test_rank_sweep_catches_a_wrong_weighted_rank(monkeypatch):
    # only the zero profile (rank 0 either way) survives, once per md
    monkeypatch.setattr(
        hkverify.fiber, "_subsheaf_rank_weighted_raw", _weighted_rank_with_wrong_denominator
    )
    report = run_report(ReportConfig(only="fiber-rank-integrality"))
    (record,) = report.records
    assert (record.computed, record.verdict) == ("496 failures / 500 cases", "fail")
    assert exit_code(report) == 1


def test_only_ample_sweep_reads_the_config_ranges(default_report):
    # the certificates run fixed frames: at the benchmark's wide grid every
    # record but ample-sweep is the same, byte for byte
    grid = run_report(ReportConfig(abar_max=8, a_max=200, md_max=121))
    changed = [
        a[0] for a, b in zip(_rows(default_report.records), _rows(grid.records)) if a != b
    ]
    assert changed == ["ample-sweep"]
    assert len(grid.records) == len(default_report.records)


def _wrong_kernel_criterion(deg_f, n, d0):
    # (n+1)^2 d0^(2n) -> (n+2)^2 d0^(2n)
    return gcd(deg_f, (n + 2) ** 2 * d0 ** (2 * n)) == 1


def test_semihom_sweep_catches_a_wrong_kernel_criterion(monkeypatch):
    monkeypatch.setattr(hkverify.report, "is_simple_via_kernel", _wrong_kernel_criterion)
    report = run_report(ReportConfig(only="semihom-criteria-agree"))
    (record,) = report.records
    assert (record.computed, record.verdict) == ("33 failures / 161 cases", "fail")
    assert exit_code(report) == 1


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize(
    ("claim_id", "owner", "names", "calls"),
    [
        # one per case of the six-point twist frame and ordered basis pair
        # (54, not the old 3x3 grid's 81)
        ("delta-pairing-two-paths", hkverify.report, ("delta_pairing_via_chern",), 54),
        # two per case: ch1^2 in delta_pairing_via_chern and the one k = 0
        # term of x_quartic(line, line, u, v); the other two quartics of
        # ch2_pairing have an exceptional factor with a zero base
        ("delta-pairing-two-paths", hkverify.blowup, ("fujiki_integral",), 108),
        # none: there is one model object per (omegabar^2, d), so every
        # model check is `is` and no two models are compared by value (an
        # `==` or `!=` between models would call __eq__, counted here)
        ("delta-pairing-two-paths", AbelianSurfaceModel, ("__eq__",), 0),
        # one per basis class, not one per factor of each of the 81 cases
        ("blowup-pullback-quartic", hkverify.report, ("pullback_correspondence",), 3),
        # one per md row of the frame (m d = 9, 11, 13, 15), not one per profile
        ("fiber-rank-integrality", hkverify.fiber, ("fiber_degrees",), 4),
        # four in the one Poly comparison: three for 8 times the Fraction
        # coefficients of ch4 and one for 2 times the constant 27/2 of
        # ch1 ch3; every other coefficient is an int, and nothing is
        # evaluated at a sample a
        ("chern-chi-end-sweep", Fraction, _FRACTION_ARITHMETIC, 4),
        # one: the X side is computed once, on the symbolic model
        ("chern-polynomial-identities", hkverify.report, ("ch2_pairing",), 1),
        # none: every quotient of these two sweeps is an exact int, 3 * total
        # / 8 in fujiki_symmetrized and twelve_times / 12 in ch2_pairing, and
        # _quotient divides two ints with no Fraction (81 and 54 were built)
        ("fujiki-symmetrization", Fraction, ("__new__",), 0),
        ("delta-pairing-two-paths", Fraction, ("__new__",), 0),
        # one per case of each residue frame: s0 <= 6, c0 in 1 ... s0 coprime
        # to s0, e in 1 ... s0^2 (227, not the old box's 1320); one per prime
        # pattern of n + 1 and d0 at f <= 20 (161, not 1200); d0 = 1 ... n + 1
        # at n = 1, 2, 3 (9, not 15)
        ("forced-stable-two-paths", hkverify.report, ("forced_stable_via_jh",), 227),
        ("semihom-criteria-agree", hkverify.report, ("is_simple_via_kernel",), 161),
        ("zeppola-oracle", hkverify.report, ("zeppola_oracle",), 9),
    ],
    ids=[
        "delta-pairings-per-sweep",
        "fujiki-per-delta-case",
        "model-checks-per-delta-case",
        "pullbacks-per-sweep",
        "degrees-per-row",
        "fraction-ops",
        "x-paths-per-chern-sweep",
        "fractions-per-fujiki-sweep",
        "fractions-per-delta-sweep",
        "jh-per-stability-case",
        "kernels-per-semihom-case",
        "oracles-per-zeppola-case",
    ],
)
def test_sweep_work_is_pinned_by_call_counts(monkeypatch, claim_id, owner, names, calls):
    # call counts repeat exactly where timings do not, so a kernel that goes
    # back to per-case row work or to Fraction arithmetic fails here. A
    # constructor is counted by its frames under a profile hook, not patched
    counted = []
    constructors = set()
    for name in names:
        original = getattr(owner, name)
        if name == "__new__":
            constructors.add(original.__code__)
            continue

        def counting(*args, _original=original, **kwargs):
            counted.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in constructors:
            counted.append(None)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        (record,) = run_report(ReportConfig(only=claim_id)).records
    finally:
        sys.setprofile(previous)
    assert record.verdict == "pass"
    assert len(counted) == calls


def test_fujiki_symmetrization_pairs_only_in_the_oracle(monkeypatch):
    # fujiki_symmetrized calls bbf once per ordered pair, 12 per case of the
    # 81; fujiki_integral writes its six pairings out and calls none
    oracle = hkverify.kummer.fujiki_symmetrized.__code__
    callers = []

    def counting(a, b):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not oracle:
            frame = frame.f_back
        callers.append(frame is not None)
        return bbf(a, b)

    monkeypatch.setattr(hkverify.kummer, "bbf", counting)
    (record,) = run_report(ReportConfig(only="fujiki-symmetrization")).records
    assert record.verdict == "pass"
    assert len(callers) == 81 * 12
    assert all(callers)


@pytest.mark.parametrize(("abar_max", "calls"), [(3, 9), (8, 24)], ids=["default", "sweep-grid"])
def test_ample_sweep_decides_one_d_per_abar_and_m(monkeypatch, abar_max, calls):
    # the residue frame calls is_ample_h once per (abar, m), abar <= abar_max
    # and m in {1, 2, 3} (9 and 24, not the old box's 900 and 2400)
    counted = []

    def counting(*args):
        counted.append(None)
        return is_ample_h(*args)

    monkeypatch.setattr(hkverify.report, "is_ample_h", counting)
    (record,) = run_report(ReportConfig(abar_max=abar_max, only="ample-sweep")).records
    assert record.verdict == "pass"
    assert len(counted) == calls


def test_ample_sweep_tries_only_the_candidates_that_can_be_witnesses():
    # the loop body of is_ample_h runs once per (c, p) with c <= 3 / m and
    # p in {0, 1}, the only candidates that can be wall classes: the frame's
    # one d per (abar, m) at abar = 1, 2, 3 tries 6 + 2 + 2 = 10 per abar at
    # m = 1, 2, 3, and every case is ample, so no search ends early. The old
    # box's 100 d per (abar, m) made it 3000; also trying the wall through h
    # (c = 0) and p in {-2, -1, 2} made that 12000
    lines, start = inspect.getsourcelines(is_ample_h)
    (body,) = [start + i for i, line in enumerate(lines) if "num = c - four_abar * p" in line]
    code = is_ample_h.__code__
    runs = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            runs.append(None)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        (record,) = run_report(ReportConfig(only="ample-sweep")).records
    finally:
        sys.settrace(previous)
    assert record.verdict == "pass"
    assert len(runs) == 30


@pytest.mark.parametrize(
    "name",
    ["V_PAIR_COEFF", "V_DELTA_SQUARE", "C2_NORMAL", "C2_AMBIENT"],
    ids=["pair_coeff", "delta_restriction_sq", "c2_normal", "c2_ambient"],
)
def test_every_vf_field_is_checked_by_the_report(monkeypatch, name):
    # the V data is read from these four constants alone: bumping any one
    # of them fails the report
    monkeypatch.setattr(hkverify.blowup, name, getattr(hkverify.blowup, name) + 1)
    report = run_report()
    assert report.summary["fail"] > 0
    assert exit_code(report) == 1


def test_exceptional_fourth_is_checked_against_the_literal():
    # c2(N) bumped before the catalogue is built: a recorded value read from
    # C2_NORMAL would follow the bump and compare x_quartic's k = 4 term with
    # itself
    script = (
        "import sys\n"
        "import hkverify.blowup as blowup\n"
        "blowup.C2_NORMAL += 1\n"
        "from hkverify.cli import main\n"
        "sys.exit(main(['report', '--only', 'blowup-exceptional-fourth', '--format', 'md']))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 1, run.stderr
    row = "| blowup-exceptional-fourth | 163 | 162 | fail | stated |"
    assert row in run.stdout.splitlines()


@pytest.mark.parametrize(
    "bump, failing",
    [("C2_SQUARE_VALUE = 757", "chern-ch2-td2"), ("EULER_NUMBER = 109", "chern-chi-end-constant")],
    ids=["c2-square", "euler-number"],
)
def test_chern_inputs_are_computed_from_the_kummer_constants(bump, failing):
    # the constant is changed before the catalogue is built: ch2 . td2 was the
    # literal 9a - 45/4 and chi(O) the literal 3, so each record compared a
    # literal with itself and read pass
    script = (
        "import sys\n"
        "import hkverify.kummer as kummer\n"
        f"kummer.{bump}\n"
        "from hkverify.cli import main\n"
        f"sys.exit(main(['report', '--only', '{failing}', '--format', 'md']))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 1, run.stderr
    (row,) = [line for line in run.stdout.splitlines() if line.startswith(f"| {failing} |")]
    assert row.split(" | ")[3] == "fail", row


def test_provenance_follows_from_the_claim_kind(default_report):
    # read off the catalogue entry, with no claim computed: an entry with no
    # recorded value is a sweep, two computations compared case by case
    by_id = {r.claim_id: r for r in default_report.records}
    for claim in CLAIMS:
        derived = claim.stated is None
        assert by_id[claim.claim_id].provenance == ("derived" if derived else "stated")
    record = by_id["chern-polynomial-identities"]
    assert (record.computed, record.stated) == ("0 failures / 1 cases",) * 2
    provenances = [r.provenance for r in default_report.records]
    assert (provenances.count("derived"), provenances.count("stated")) == (14, 47)


@pytest.mark.parametrize(
    "cfg",
    [ReportConfig(), ReportConfig(abar_max=8, a_max=200, md_max=121)],
    ids=["default", "sweep-grid"],
)
def test_no_sweep_is_ever_empty(cfg):
    # every sweep computes (failures, cases), two ints, with at least one case
    sweeps = [c for c in CLAIMS if c.stated is None]
    assert len(sweeps) == 14
    for claim in sweeps:
        value = claim.compute(cfg)
        assert [type(v) for v in value] == [int, int], claim.claim_id
        assert value[1] >= 1, claim.claim_id


def test_a_changed_derived_ch1sq_ch2_fails(monkeypatch):
    # the discrepancy is pinned to its difference, stated - derived =
    # 288 a^2 - 216 a: a derived value off by one is a failure, not the
    # known discrepancy
    derived = hkverify.chern.ch1sq_ch2_derived + 1
    monkeypatch.setattr(hkverify.report, "ch1sq_ch2_derived", derived)
    report = run_report(ReportConfig(only="chern-ch1sq-ch2"))
    (record,) = report.records
    assert (record.computed, record.verdict) == ("288*a**2 - 324*a + 82", "fail")
    assert exit_code(report) == 1


@pytest.mark.parametrize("degree", [2, 1, 0], ids=["576", "540", "81"])
def test_a_changed_recorded_ch1sq_ch2_fails(monkeypatch, degree):
    # a recorded coefficient off by one moves the difference off its pin
    (claim,) = [c for c in CLAIMS if c.claim_id in EXPECTED_DISCREPANCIES]
    bump = Poly((0,) * degree + (1,))
    monkeypatch.setattr(claim, "stated", claim.stated + bump)
    report = run_report(ReportConfig(only=claim.claim_id))
    assert report.records[0].verdict == "fail"
    assert exit_code(report) == 1


def test_exit_code_flags_failures(default_report):
    report = default_report
    assert exit_code(report) == 0
    tampered = report.records[:1]
    bad = ClaimRecord("made-up", "1", "2", "fail", "derived")
    from hkverify.report import Report

    assert exit_code(Report(report.config, tuple(tampered) + (bad,), {})) == 1


def test_claim_record_validation():
    with pytest.raises(ValueError):
        ClaimRecord("x", "1", "1", "maybe", "stated")
    with pytest.raises(ValueError):
        ClaimRecord("x", "1", "1", "pass", "guessed")


def test_report_config_validation():
    with pytest.raises(ValueError):
        ReportConfig(abar_max=0)
    with pytest.raises(TypeError):
        ReportConfig(d_max=60)  # the retired knob is not a keyword
    with pytest.raises(ValueError):
        ReportConfig(samples=0)


@pytest.mark.parametrize("md_max", [0, -3, 1, 8])
def test_report_config_rejects_non_positive_md_max(md_max):
    # fiber-rank-integrality starts at m*d = 9, so a smaller md_max would
    # leave it no case
    with pytest.raises(ValueError, match="md_max must be at least 9"):
        ReportConfig(md_max=md_max)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abar_max": 2.5},
        {"a_max": "3"},
        {"md_max": None},
        {"md_max": 9.5},
        {"only": 5},
        {"only": b"chern-"},
        {"samples": "3"},
        {"samples": 2.5},
    ],
)
def test_report_config_rejects_non_int_range_and_non_str_only(kwargs):
    # rejected at construction, not later in a claim's range() or in
    # str.startswith while run_report runs, by a message naming the argument
    (name,) = kwargs
    with pytest.raises(TypeError, match=name):
        ReportConfig(**kwargs)


def test_report_config_stores_a_bool_range_as_its_int():
    config = ReportConfig(abar_max=True, a_max=True)
    assert (type(config.abar_max), type(config.a_max)) == (int, int)
    assert json.loads(to_json(run_report(config)))["config"]["a_max"] == 1


def test_report_config_stores_no_samples_or_seed():
    # samples and seed are keyword arguments accepted, checked and dropped
    config = ReportConfig(samples=150, seed=3)
    assert ReportConfig.__slots__ == ("abar_max", "a_max", "md_max", "only")
    assert not hasattr(config, "samples") and not hasattr(config, "seed")
    default = ReportConfig()
    assert [getattr(config, f) for f in ReportConfig.__slots__] == [
        getattr(default, f) for f in ReportConfig.__slots__
    ]


def test_cli_report_json(capsys):
    code = main(["report", "--only", "walls-"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert [r["claim_id"] for r in payload["records"]] == [
        "walls-discarded",
        "walls-retained",
    ]


def test_cli_report_markdown(capsys):
    code = main(["report", "--format", "md", "--only", "fujiki-delta-fourth"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("| claim ")
    assert "| fujiki-delta-fourth | 324 | 324 | pass | stated |" in lines


@pytest.mark.parametrize(
    "flag", ["--samples", "--seed", "--d-max", "--abar-max", "--a-max", "--md-max"]
)
def test_cli_report_rejects_retired_sampling_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["report", flag, "7", "--only", "fujiki-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 7" in captured.err


def test_samples_and_seed_change_no_record():
    base = run_report(ReportConfig(only="fujiki-"))
    other = run_report(ReportConfig(only="fujiki-", samples=3, seed=7))
    assert _rows(other.records) == _rows(base.records)


def test_cli_ample(capsys):
    assert main(["ample", "--abar", "1", "--d", "31", "--m", "1"]) == 0
    assert capsys.readouterr().out.strip() == "Ample"
    assert main(["ample", "--abar", "1", "--d", "3"]) == 0
    assert capsys.readouterr().out.strip() == "NotAmple (witness 0,1,-1)"


def test_cli_chern_entry(capsys):
    assert main(["chern", "--a", "1", "--entry", "chi-end"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["chern", "--a", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a = 1"
    for row in (
        "ch1^4 = 900",
        "ch1^2.ch2 (stated) = 117",
        "ch1^2.ch2 (derived) = 45",
        "ch2^2 = 9",
        "chi = 9",
        "chi(End) = 3",
        "chi(End0) = 0",
    ):
        assert row in out


@pytest.mark.parametrize("a", ["0", "-2"])
@pytest.mark.parametrize("entry", [[], ["--entry", "ch4"]], ids=["table", "entry"])
def test_cli_chern_rejects_a_below_one(capsys, a, entry):
    assert main(["chern", "--a", a, *entry]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a must be a positive integer" in captured.err


def test_cli_rr(capsys):
    assert main(["rr", "--q", "10"]) == 0
    assert capsys.readouterr().out.strip() == "63"
    assert main(["rr", "--abar", "1", "--d", "5", "--cls", "2,0,-1"]) == 0
    assert capsys.readouterr().out.strip() == "63"


def test_cli_fujiki(capsys):
    argv = ["fujiki", "--abar", "1", "--d", "5"] + ["0,0,1"] * 4
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "324"


def test_cli_walls(capsys):
    assert main(["walls"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ss=0 sv=1 n=1 q=-6 div in {6}"
    assert len([l for l in out if l.startswith("ss=")]) == 5
    assert out[-1].startswith("discarded: ss=2 sv=3")


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) of each `$ hkverify ...` line in README.md's
    code blocks, with the lines under it up to the next command or the end
    of its block."""
    readme = Path(hkverify.__file__).resolve().parents[2] / "README.md"
    examples = []
    in_block = False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ hkverify "):
            current = []
            examples.append((line[len("$ hkverify ") :], current))
        elif in_block and current is not None:
            current.append(line)
    return examples


_README_EXAMPLES = _readme_examples()


def test_readme_has_examples_with_output():
    examples = dict(_README_EXAMPLES)
    assert "walls" in examples and "ample --abar 1 --d 15" in examples
    assert all(examples.values())


@pytest.mark.parametrize(
    "command, output", _README_EXAMPLES, ids=[command for command, _ in _README_EXAMPLES]
)
def test_readme_example_prints_its_output(capsys, command, output):
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == output


def test_cli_modularity(capsys):
    assert main(["modularity", "--x", "0", "--y", "1"]) == 0
    assert capsys.readouterr().out.strip() == "Modular (coefficient 54)"
    assert main(["modularity", "--x", "0", "--y", "2"]) == 0
    assert capsys.readouterr().out.strip() == "NotModular"


def test_cli_fiber(capsys):
    assert main(["fiber", "--m", "1", "--d", "9"]) == 0
    out = capsys.readouterr().out
    assert "deg V component = 864" in out
    assert "deg Delta component = 216" in out
    assert main(["fiber", "--m", "1", "--d", "9", "--r1p", "1", "--r1pp", "2", "--r2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "13/9"


def test_cli_monodromy(capsys):
    assert main(["monodromy"]) == 0
    out = capsys.readouterr().out
    assert "group order on 2-torsion: 6" in out
    assert "fixed 2-torsion points: 1 (zero only)" in out
    assert "invariant 2-torsion cosets in 4-torsion: 1 (trivial coset)" in out


def test_cli_semihom(capsys):
    assert main(["semihom", "--deg-f", "4", "--n", "2", "--d0", "3"]) == 0
    assert capsys.readouterr().out == "Simple (rank 16, fiber count 27)\n"
    assert main(["semihom", "--deg-f", "2", "--n", "1", "--d0", "2"]) == 0
    assert capsys.readouterr().out.strip() == "NotSimple"


def test_cli_semihom_exits_one_when_the_criteria_disagree(monkeypatch, capsys):
    # at (3, 1, 1) the gcd criterion says simple, the wrong kernel one not
    monkeypatch.setattr(hkverify.abelian, "is_simple_via_kernel", _wrong_kernel_criterion)
    assert main(["semihom", "--deg-f", "3", "--n", "1", "--d0", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the two simplicity criteria disagree\n")
    # where the two agree, the output is unchanged
    assert main(["semihom", "--deg-f", "2", "--n", "1", "--d0", "2"]) == 0
    assert capsys.readouterr().out == "NotSimple\n"


def test_cli_semihom_prints_huge_values_as_powers(capsys):
    assert main(["semihom", "--deg-f", "4", "--n", "10000", "--d0", "3"]) == 0
    assert capsys.readouterr().out == "Simple (rank 4^10000, fiber count 10001*3^10000)\n"


def test_cli_semihom_million_is_fast(capsys):
    start = time.perf_counter()
    assert main(["semihom", "--deg-f", "4", "--n", "1000000", "--d0", "3"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "Simple (rank 4^1000000, fiber count 1000001*3^1000000)\n"


def test_cli_semihom_hundred_million_is_fast(capsys):
    # the spelling is decided from the digit count, so no power is built
    start = time.perf_counter()
    assert main(["semihom", "--deg-f", "4", "--n", "100000000", "--d0", "3"]) == 0
    assert time.perf_counter() - start < 2
    expected = "Simple (rank 4^100000000, fiber count 100000001*3^100000000)\n"
    assert capsys.readouterr().out == expected


def test_cli_semihom_takes_n_past_float_range(capsys):
    # n * log10(base) turned n into a float: this printed "error: int too
    # large to convert to float" and exited 1
    n = 10**400
    assert main(["semihom", "--deg-f", "3", "--n", str(n), "--d0", "2"]) == 0
    assert capsys.readouterr().out == f"Simple (rank 3^{n}, fiber count {n + 1}*2^{n})\n"


def test_cli_domain_errors_exit_one(capsys):
    assert main(["ample", "--abar", "0", "--d", "3"]) == 1
    capsys.readouterr()
    assert main(["fiber", "--m", "1", "--d", "9", "--r1p", "1"]) == 1
    capsys.readouterr()
    assert main(["rr"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["fujiki", "--abar", "0", "--d", "3", "1,0,0", "1,0,0", "1,0,0", "1,0,0"], "abar"),
        (["fujiki", "--abar", "1", "--d", "0", "1,0,0", "1,0,0", "1,0,0", "1,0,0"], "d"),
        (["rr", "--abar", "0", "--d", "3", "--cls", "1,0,0"], "abar"),
        (["modularity", "--x", "1", "--y", "0", "--abar", "0"], "abar"),
        (["modularity", "--x", "1", "--y", "0", "--d", "-2"], "d"),
    ],
    ids=["fujiki-abar", "fujiki-d", "rr-abar", "modularity-abar", "modularity-d"],
)
def test_cli_surface_model_errors_name_the_flag(capsys, argv, name):
    # unmended, these printed the model's own message, "omegabar^2 must be
    # a positive even integer" or "mixed pairing d must be ...", which names
    # no flag
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {name} must be a positive integer\n"


#: (function, valid keyword arguments, the range-checked ones, a value out of
#: range, the end of the message)
_RANGE_CHECKED = [
    (is_ample_h, {"abar": 1, "d": 3, "m": 1}, ("abar", "d", "m"), 0, "be a positive integer"),
    (fiber_degrees, {"m": 1, "d": 9}, ("m", "d"), 0, "be a positive integer"),
    (SubsheafProfile, {"r1p": 1, "r1pp": 1, "r2": 1}, ("r1p", "r1pp", "r2"), 5, "lie in 0..4"),
    (zeppola_integral, {"n": 1, "d0": 1}, ("n", "d0"), 0, "be a positive integer"),
    (jh_decompositions, {"r": 4, "a": 2, "e": 3}, ("r", "e"), 0, "be a positive integer"),
    (forced_stable, {"s0": 1, "c0": 1, "e": 1}, ("s0", "e"), 0, "be a positive integer"),
    (
        ReportConfig,
        {"abar_max": 1, "a_max": 1, "samples": 1},
        ("abar_max", "a_max", "samples"),
        0,
        "be positive",
    ),
]


@pytest.mark.parametrize(
    "func, kwargs, message",
    [
        pytest.param(func, {**valid, name: bad}, f"{name} must {end}", id=f"{func.__name__}-{name}")
        for func, valid, checked, bad, end in _RANGE_CHECKED
        for name in checked
    ],
)
def test_range_errors_name_the_argument_that_failed(func, kwargs, message):
    # the message once named every argument the check covers ("m and d must
    # be positive integers"), and SubsheafProfile's named none
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**kwargs)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ample", "--abar", "1", "--d", "3", "--m", "0"], "m must be a positive integer"),
        (["ample", "--abar", "1", "--d", "0", "--m", "1"], "d must be a positive integer"),
        (["fiber", "--m", "1", "--d", "0"], "d must be a positive integer"),
        (["fiber", "--m", "0", "--d", "9"], "m must be a positive integer"),
    ],
    ids=["ample-m", "ample-d", "fiber-d", "fiber-m"],
)
def test_cli_range_errors_name_the_flag(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["rr", "--q", "zzz"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "value", ["1e10000000", "1e30000000", "1E5", "nan", "0x10", "1_000", "1/2/3"]
)
def test_cli_rejects_non_rational_literals_at_once(capsys, value):
    # unchecked, Fraction reads the exponent: rr --q 1e10000000 ran 48 s and
    # exited 1, and 1e30000000 ran past 120 s
    with pytest.raises(SystemExit) as err:
        main(["rr", "--q", value])
    assert err.value.code == 2
    assert f"not a rational number: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, chi", [("10", "63"), ("-6/2", "-3/8"), ("-.5", "63/32"), ("2.", "9"), (" +4 ", "18")]
)
def test_cli_accepts_integer_quotient_and_decimal_literals(capsys, value, chi):
    assert main(["rr", "--q", value]) == 0
    assert capsys.readouterr().out.strip() == chi


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter has no int-to-string digit limit")
@pytest.mark.parametrize(
    "literal",
    [lambda n: "7" * n, lambda n: "0." + "1" * n, lambda n: "-1/" + "3" * n],
    ids=["integer", "decimal", "quotient"],
)
def test_cli_long_literal_at_the_digit_limit(capsys, literal):
    # a run of digits as long as the limit is a value; one more digit is a
    # usage error that says so, not "not a rational number"
    assert main(["modularity", "--x", literal(DIGIT_LIMIT), "--y", "0"]) == 0
    assert capsys.readouterr().out == "NotModular\n"
    with pytest.raises(SystemExit) as err:
        main(["modularity", "--x", literal(DIGIT_LIMIT + 1), "--y", "0"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"a literal of more than {DIGIT_LIMIT} digits exceeds the interpreter's limit" in message
    assert "not a rational number" not in message


LIMIT = digit_limit()


def _long_str(value) -> str:
    """The test's own spelling of a long int or Fraction: str() with the
    int-to-string limit lifted for the call."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(value)
    set_limit(0)
    try:
        return str(value)
    finally:
        set_limit(DIGIT_LIMIT)


def _long_cases(k: int) -> dict:
    """Per command: the argv with the k-digit input 88...8, and a thunk for
    its expected stdout lines. Each answer has more digits than its input."""
    digits, n = "8" * k, 8 * (10**k - 1) // 9
    classes = [f"{digits},0,0", f"0,{digits},0", f"0,0,{digits}", f"{digits},{digits},{digits}"]
    profile = ["--r1p", "1", "--r1pp", "2", "--r2", "1"]

    def fujiki():
        model = AbelianSurfaceModel(4, 3)
        return [fujiki_integral(*(KummerTwoClass(model, *map(int, c.split(","))) for c in classes))]

    def fiber():
        deg_v, deg_delta = fiber_degrees(1, n)
        return [f"deg V component = {_long_str(deg_v)}", f"deg Delta component = {_long_str(deg_delta)}"]

    def chern():
        rows = [(label, getattr(hkverify.chern, name)(n)) for _, label, name in _CHERN_TABLE if label]
        return [f"a = {digits}"] + [f"{label} = {_long_str(value)}" for label, value in rows]

    return {
        "rr-q": (["rr", "--q", digits], lambda: [riemann_roch_from_square(n)]),
        "rr-cls": (
            ["rr", "--abar", digits, "--d", "3", "--cls", "1,0,0"],
            lambda: [riemann_roch(KummerTwoClass(AbelianSurfaceModel(4 * n, 3), 1, 0, 0))],
        ),
        "fiber-degrees": (["fiber", "--m", "1", "--d", digits], fiber),
        "fiber-profile": (
            ["fiber", "--m", digits, "--d", digits, *profile],
            lambda: [subsheaf_rank(SubsheafProfile(1, 2, 1), n, n)],
        ),
        "fujiki": (["fujiki", "--abar", "1", "--d", "3", *classes], fujiki),
        "ample": (
            ["ample", "--abar", digits, "--d", digits, "--m", "2"],
            lambda: [f"Ample (below certified threshold d <= {_long_str(ample_thresholds(n)[1])})"],
        ),
        "chern": (["chern", "--a", digits], chern),
    }


@pytest.mark.parametrize("command", sorted(_long_cases(1)))
def test_cli_prints_answers_longer_than_the_digit_limit(capsys, command):
    # an input as long as the limit is valid, and its answer prints in full
    # although str() would refuse it; one digit more is a usage error where
    # the interpreter has a limit
    argv, expected = _long_cases(LIMIT)[command]
    assert main(argv) == 0
    lines = [v if isinstance(v, str) else _long_str(v) for v in expected()]
    assert capsys.readouterr().out.splitlines() == lines
    assert max(map(len, lines)) > LIMIT
    if not DIGIT_LIMIT:
        return
    argv, _ = _long_cases(LIMIT + 1)[command]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "error: argument" in message
    assert f"a literal of more than {DIGIT_LIMIT} digits exceeds the interpreter's limit" in message
    # the usage error names the limit; it does not echo the literal
    assert len(message) < LIMIT


def test_cli_names_a_long_square_that_is_not_even(capsys):
    # the domain error spells q(c1) in full, not the int-to-string error
    assert main(["rr", "--abar", "8" * LIMIT, "--d", "3", "--cls", "1/3,0,0"]) == 1
    c1 = KummerTwoClass(AbelianSurfaceModel(4 * int("8" * LIMIT), 3), Fraction(1, 3), 0, 0)
    expected = f"error: q(c1) = {_long_str(bbf(c1, c1))} is not an even integer\n"
    assert capsys.readouterr().err == expected


def test_cli_partial_fiber_profile_is_rejected(capsys):
    assert main(["fiber", "--m", "1", "--d", "9", "--r2", "1"]) == 1
    assert "profile needs all" in capsys.readouterr().err


def _python_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    hkverify, with stdout buffered unless `-u` asks otherwise."""
    src = str(Path(hkverify.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_python(*args):
    """A fresh interpreter that imports this checkout's hkverify."""
    return subprocess.run(
        [sys.executable, *args], env=_python_env(), capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_no_sympy():
    run = _run_python("-c", "import hkverify.cli, sys; print('sympy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.mark.parametrize("module", ["hkverify.cli", "hkverify.report"])
def test_import_loads_no_dataclasses_or_inspect(module):
    # the value classes are __slots__ classes; importing dataclasses (which
    # pulls in inspect) cost about 30 ms of every cold process
    code = f"import {module}, sys; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    run = _run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def _loaded_after(code: str) -> list[str]:
    """The package modules, `fractions`, `decimal` and `json` that a fresh
    interpreter has loaded after running `code`."""
    watched = "m.startswith('hkverify') or m in ('fractions', 'decimal', 'json')"
    script = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if {watched}))"
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_report_or_json():
    # importing the command line builds nothing but the parser: each command
    # imports the modules it runs, and only `hkverify report` the catalogue
    assert _loaded_after("import hkverify.cli") == ["hkverify", "hkverify.cli"]


#: Every math module: the catalogue imports them all.
_REPORT_MODULES = ["abelian", "blowup", "chern", "fiber", "kummer", "lattice", "report", "walls"]


@pytest.mark.parametrize(
    "argv, modules, json_loaded",
    [
        (["chern", "--a", "3"], ["chern", "kummer", "lattice"], False),
        (["semihom", "--deg-f", "4", "--n", "2", "--d0", "3"], ["abelian", "lattice"], False),
        (["monodromy"], ["fiber", "lattice"], False),
        (["--help"], [], False),
        (["report", "--format", "md"], _REPORT_MODULES, False),
        (["report", "--format", "json"], _REPORT_MODULES, True),
    ],
    ids=["chern", "semihom", "monodromy", "help", "report-md", "report-json"],
)
def test_cli_command_loads_only_the_modules_it_runs(argv, modules, json_loaded):
    code = f"from hkverify.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass"
    loaded = [m for m in _loaded_after(code) if m not in ("hkverify", "hkverify.cli")]
    # every math module imports lattice, which imports fractions and decimal;
    # only the JSON renderer imports json's string encoder
    numbers = ["decimal", "fractions"] if modules else []
    assert loaded == numbers + [f"hkverify.{m}" for m in modules] + ["json"] * json_loaded


def test_python_dash_m_runs_the_cli():
    run = _run_python("-m", "hkverify", "report", "--only", "chern-ch4", "--format", "md")
    assert run.returncode == 0, run.stderr
    row = "| chern-ch4 | 3*a**2/2 - 9*a/2 + 9/4 | 3*a**2/2 - 9*a/2 + 9/4 | pass | stated |"
    assert row in run.stdout.splitlines()


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_console_report_prints_the_golden_bytes(fmt):
    # the console path (python -m hkverify, main_entry, a fresh process) and
    # not only the in-process renderers give the committed fixture
    run = subprocess.run(
        [sys.executable, "-m", "hkverify", "report", "--format", fmt],
        env=_python_env(),
        capture_output=True,
        timeout=120,
    )
    golden = Path(__file__).parent / "golden" / f"report.{fmt}"
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == golden.read_bytes()


#: Prints the freeze count from an atexit handler, so after main_entry has
#: raised SystemExit, on stderr's last line.
_FREEZE_PROBE = """
import atexit, gc, sys
assert gc.get_freeze_count() == 0
atexit.register(lambda: print("frozen:", gc.get_freeze_count(), file=sys.stderr))
from hkverify.cli import main_entry
main_entry()
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "--format", "md"], 0),
        (["report", "--only", "zz"], 1),
        (["report", "--format", "xml"], 2),
    ],
    ids=["pass", "domain-error", "usage-error"],
)
def test_main_entry_keeps_its_exit_code_and_freezes_on_the_way_out(argv, code):
    run = _run_python("-c", _FREEZE_PROBE, *argv)
    assert run.returncode == code, run.stderr
    frozen = run.stderr.splitlines()[-1]
    assert frozen.startswith("frozen: ") and int(frozen.split()[1]) > 0, run.stderr


def _closed_pipe_run(argv):
    """Run argv with stdout on a pipe whose reading end is already closed,
    so that every write to it fails with a broken pipe."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            argv, env=_python_env(), stdout=write, stderr=subprocess.PIPE, text=True, timeout=120
        )
    finally:
        os.close(write)


@pytest.mark.parametrize(
    "argv, code",
    [(["walls"], 0), (["report", "--only", "chern-ch4"], 0), (["--bogus"], 2), (["-h"], 0)],
    ids=["walls", "report", "usage-error", "help"],
)
def test_cli_with_stdout_closed_keeps_its_exit_code(argv, code):
    # with fd 1 closed at startup sys.stdout is None: print writes nothing,
    # and the flush in main must not turn that into a traceback; argparse
    # sends the help to stderr then
    run = subprocess.run(
        [sys.executable, "-m", "hkverify", *argv],
        env=_python_env(),
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr


def _full_device_run(argv):
    """Run argv with stdout on /dev/full, where every write fails."""
    with open("/dev/full", "w") as full:
        return subprocess.run(
            argv, env=_python_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120
        )


@pytest.mark.parametrize(
    "sink",
    [
        _closed_pipe_run,
        pytest.param(
            _full_device_run,
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=["closed-pipe", "full-device"],
)
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command",
    [["report"], ["walls"], ["chern", "--a", "9" * 4000], ["-h"], ["report", "--help"]],
    ids=["report", "walls", "chern", "help", "report-help"],
)
def test_cli_write_errors_exit_one_without_a_traceback(sink, flags, command):
    # unmended, report > /dev/full and chern into a closed pipe showed an
    # OSError traceback, and a buffered walls > /dev/full exited 120 with
    # "Exception ignored" from the interpreter's last flush; unbuffered,
    # argparse dropped the failed help write and -h exited 0
    run = sink([sys.executable, *flags, "-m", "hkverify", *command])
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
