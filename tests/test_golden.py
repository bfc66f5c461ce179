"""The default report, byte for byte, against the committed fixtures.

`tests/golden/report.json` and `tests/golden/report.md` are the outputs of
`hkverify report --format json` and `--format md` with the default
configuration; `tests/golden/report-sweep-grid.json` is the JSON report at
the benchmark's wide grid, where `ample-sweep`'s residue frame (one d per
(abar, m)) runs every abar up to 8. Only `ample-sweep` reads a range of the
config, so the two JSON reports differ in that record and in the echoed
config block alone: `a_max` and `md_max` change no record and stay only
because the benchmark sends them. The other certificates run the same
fixed frames at both (among them `lattice-discriminant-sweep` and
`zeppola-oracle`), and every polynomial identity (`delta-pairing-two-paths`
and the other two-path records on symbolic classes,
`chern-polynomial-identities`, `chern-chi-end-sweep`, `fiber-degrees-gram`
and the kernel half of `fiber-rank-integrality`) the same one case. A
change that alters a single byte of any of them fails
here; regenerating the fixtures is a deliberate act that CHANGES.md records.
"""

from pathlib import Path

from hkverify.report import ReportConfig, run_report, to_json, to_markdown

GOLDEN = Path(__file__).parent / "golden"


def test_default_report_json_matches_golden(default_report):
    assert to_json(default_report).encode() == (GOLDEN / "report.json").read_bytes()


def test_default_report_markdown_matches_golden(default_report):
    assert to_markdown(default_report).encode() == (GOLDEN / "report.md").read_bytes()


def test_sweep_grid_report_json_matches_golden():
    report = run_report(ReportConfig(abar_max=8, a_max=200, md_max=121))
    assert to_json(report).encode() == (GOLDEN / "report-sweep-grid.json").read_bytes()
