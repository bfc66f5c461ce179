"""The default report, byte for byte, against the committed fixtures.

`tests/golden/report.json` and `tests/golden/report.md` are the outputs of
`hkverify report --format json` and `--format md` with the default
configuration. A change that alters a single byte of either report fails
here; regenerating the fixtures is a deliberate act that CHANGES.md records.
"""

from pathlib import Path

from hkverify.report import to_json, to_markdown

GOLDEN = Path(__file__).parent / "golden"


def test_default_report_json_matches_golden(default_report):
    assert to_json(default_report).encode() == (GOLDEN / "report.json").read_bytes()


def test_default_report_markdown_matches_golden(default_report):
    assert to_markdown(default_report).encode() == (GOLDEN / "report.md").read_bytes()
