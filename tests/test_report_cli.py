"""The report builder and the command line front end: record schema,
determinism, filtering, verdict bookkeeping, and the subcommand outputs."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

import hkverify
import hkverify.blowup
import hkverify.fiber
import hkverify.report
from hkverify.cli import main
from hkverify.fiber import SubsheafProfile, fiber_degrees, integer_rank_criterion, rank_failures
from hkverify.kummer import C2_PAIR_COEFF, bbf, two_class
from hkverify.report import (
    CLAIMS,
    EXPECTED_DISCREPANCIES,
    ClaimRecord,
    ReportConfig,
    exit_code,
    run_report,
    to_json,
    to_markdown,
)


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
    assert set(payload["config"]) == {
        "abar_max",
        "d_max",
        "a_max",
        "md_max",
        "only",
    }
    for record in payload["records"]:
        assert set(record) == {"claim_id", "computed", "stated", "verdict", "provenance"}
        assert record["verdict"] in ("pass", "fail", "discrepancy", "skipped")
        assert record["provenance"] in ("stated", "derived")
    assert sum(payload["summary"].values()) == len(payload["records"])
    assert payload["warnings"] == [
        "chern-ch1sq-ch2: recorded value 576*a**2 - 540*a + 81"
        " differs from recomputed 288*a**2 - 324*a + 81"
    ]


def test_only_prefix_filter(monkeypatch):
    # claims the prefix drops are never computed, so their primitives may fail
    def unreachable(*args):
        raise RuntimeError("fujiki_integral is not needed for chern- claims")

    monkeypatch.setattr(hkverify.report, "fujiki_integral", unreachable)
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
    assert list(alone.records) == expected


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


def _mu_mu_with_wrong_linear_term(x, y, gamma1, gamma2):
    t = Fraction(x) - Fraction(y)
    return 18 * (4 * t * t + 5 * t + 3) * gamma1.pair(gamma2)


def _x_quartic_with_extra_term(c1, c2, c3, c4):
    true = hkverify.blowup.x_quartic(c1, c2, c3, c4)
    return true + c1.t * c2.t * c3.t * c4.base.x


def _ch1_with_constant_plus_one(omega, x, y):
    # the constant -1 of the delta coefficient 2x + 2y - 1 turned into +1
    true = hkverify.blowup.ch1_bundle(omega, x, y)
    return true + two_class(true.model, 0, 0, 2)


def _ch1_with_wrong_gamma_coefficient(omega, x, y):
    # 4q -> 3q in the gamma coefficient: wrong only where q != 0
    true = hkverify.blowup.ch1_bundle(omega, x, y)
    return true - two_class(true.model, 0, omega.q, 0)


def _delta_closed_as_c2(x, y, alpha, beta):
    # Delta proportional to q for every twist, not just t in {0, -1}
    return C2_PAIR_COEFF * bbf(alpha, beta)


_ch2_pairing = hkverify.blowup.ch2_pairing


def _ch2_with_mu_delta_cross_term(omega, x, y, alpha, beta):
    # ch2 gains the symmetric mu(omegabar).delta cross term, so Delta does too
    true = _ch2_pairing(omega, x, y, alpha, beta)
    return true + alpha.ns.p * beta.x + alpha.x * beta.ns.p


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
            hkverify.blowup,
            "delta_pairing_mu_mu",
            _mu_mu_with_wrong_linear_term,
            "delta-pairing-two-paths",
            "18 failures / 81 cases",
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
    ],
    ids=[
        "symmetrized-oracle",
        "delta-closed-form",
        "x-quartic",
        "ch1-constant",
        "ch1-gamma",
        "modularity-window",
        "cross-zero",
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
    for ranks, md in product(product(range(5), repeat=3), range(9, 122)):
        profile = SubsheafProfile(*ranks)
        assert rank_failures(profile, md) == _rank_failures_in_fractions(profile, md), (ranks, md)


def _weighted_rank_with_wrong_denominator(profile, m, d):
    # 2 deg V + deg Delta -> 2 deg V + deg Delta + 1
    deg_v, deg_delta = fiber_degrees(m, d)
    s = profile.r1p + profile.r1pp
    return (s * deg_v + profile.r2 * deg_delta, 2 * deg_v + deg_delta + 1)


def test_rank_sweep_catches_a_wrong_weighted_rank(monkeypatch):
    # only the zero profile (rank 0 either way) survives, once per md
    monkeypatch.setattr(
        hkverify.fiber, "_subsheaf_rank_weighted_raw", _weighted_rank_with_wrong_denominator
    )
    report = run_report(ReportConfig(only="fiber-rank-integrality"))
    (record,) = report.records
    assert (record.computed, record.verdict) == ("2108 failures / 2125 cases", "fail")
    assert exit_code(report) == 1


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(hkverify.blowup.VfData)])
def test_every_vf_field_is_checked_by_the_report(monkeypatch, field):
    # the V data is read from VF alone: bumping any one field fails the report
    vf = hkverify.blowup.VF
    bumped = dataclasses.replace(vf, **{field: getattr(vf, field) + 1})
    monkeypatch.setattr(hkverify.blowup, "VF", bumped)
    report = run_report()
    assert report.summary["fail"] > 0
    assert exit_code(report) == 1


def test_small_d_max_skips_the_ample_sweep():
    report = run_report(ReportConfig(d_max=5))
    by_id = {r.claim_id: r for r in report.records}
    assert by_id["ample-sweep"].verdict == "skipped"
    assert report.summary["skipped"] == 1
    assert exit_code(report) == 0  # skipped is not a failure


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
    with pytest.raises(ValueError):
        ReportConfig(d_max=-1)
    with pytest.raises(ValueError):
        ReportConfig(samples=0)


@pytest.mark.parametrize("md_max", [0, -3])
def test_report_config_rejects_non_positive_md_max(capsys, md_max):
    with pytest.raises(ValueError, match="md_max must be positive"):
        ReportConfig(md_max=md_max)
    assert main(["report", "--md-max", str(md_max)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: md_max must be positive\n"


def test_report_config_stores_no_samples_or_seed():
    # samples and seed are init-only: accepted, checked, not stored
    config = ReportConfig(samples=150, seed=3)
    assert [f.name for f in dataclasses.fields(config)] == [
        "abar_max",
        "d_max",
        "a_max",
        "md_max",
        "only",
    ]
    assert config == ReportConfig()


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


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
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
    assert other.records == base.records


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
    assert "a must be an integer >= 1" in captured.err


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


def test_cli_domain_errors_exit_one(capsys):
    assert main(["ample", "--abar", "0", "--d", "3"]) == 1
    capsys.readouterr()
    assert main(["fiber", "--m", "1", "--d", "9", "--r1p", "1"]) == 1
    capsys.readouterr()
    assert main(["rr"]) == 1
    capsys.readouterr()


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


def test_cli_partial_fiber_profile_is_rejected(capsys):
    assert main(["fiber", "--m", "1", "--d", "9", "--r2", "1"]) == 1
    assert "profile needs all" in capsys.readouterr().err


def _run_python(*args):
    """A fresh interpreter that imports this checkout's hkverify."""
    src = str(Path(hkverify.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_no_sympy():
    run = _run_python("-c", "import hkverify.cli, sys; print('sympy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_python_dash_m_runs_the_cli():
    run = _run_python("-m", "hkverify", "report", "--only", "chern-ch4", "--format", "md")
    assert run.returncode == 0, run.stderr
    row = "| chern-ch4 | 3*a**2/2 - 9*a/2 + 9/4 | 3*a**2/2 - 9*a/2 + 9/4 | pass | stated |"
    assert row in run.stdout.splitlines()
