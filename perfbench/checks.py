"""Output checks for the benchmark.

Every check returns a list of problems; an empty list means the output is
correct. The checks test structure and the claims' verdicts, not a golden
hash, so a change that rewrites record strings while keeping every verdict
still passes. `selftest` proves on a real report that tampered output
(a flipped verdict, a missing warning, an extra discrepancy, a markdown row
that disagrees with the JSON) is caught.
"""

from __future__ import annotations

import copy
import json

VERDICTS = ("pass", "fail", "discrepancy", "skipped")
EXPECTED_DISCREPANCY = "chern-ch1sq-ch2"
RECORD_FIELDS = ("claim_id", "computed", "stated", "verdict", "provenance")
# One headline claim per claim family; a full report must contain each.
HEADLINE_CLAIMS = (
    "lattice-discriminant",
    "fujiki-delta-fourth",
    "blowup-quartic-chain",
    "delta-pairing-two-paths",
    "chern-chi-end-constant",
    EXPECTED_DISCREPANCY,
    "walls-retained",
    "monodromy-order",
    "zeppola-values",
)


def check_report(payload, config: dict) -> list[str]:
    """Check a parsed full JSON report made with `config` (the ReportConfig
    fields). It must contain the headline claims and exactly the one
    expected discrepancy."""
    if not isinstance(payload, dict):
        return ["report is not a JSON object"]
    missing = [k for k in ("version", "config", "records", "summary", "warnings") if k not in payload]
    if missing:
        return [f"report lacks keys {missing}"]
    problems = []
    for key, value in config.items():
        if payload["config"].get(key) != value:
            problems.append(f"config.{key} is {payload['config'].get(key)!r}, expected {value!r}")
    records = payload["records"]
    if not isinstance(records, list) or not records:
        return problems + ["report has no records"]
    for r in records:
        if not isinstance(r, dict) or any(not isinstance(r.get(f), str) for f in RECORD_FIELDS):
            return problems + [f"malformed record {r!r}"]
    ids = [r["claim_id"] for r in records]
    if ids != sorted(set(ids)):
        problems.append("claim ids are not unique and sorted")
    discrepancies = []
    for r in records:
        cid, verdict = r["claim_id"], r["verdict"]
        if verdict == "pass":
            if r["computed"] != r["stated"]:
                problems.append(f"{cid}: pass with computed != stated")
        elif verdict == "discrepancy" and cid == EXPECTED_DISCREPANCY:
            if r["computed"] == r["stated"]:
                problems.append(f"{cid}: discrepancy with computed == stated")
            discrepancies.append(r)
        else:
            problems.append(f"{cid}: unexpected verdict {verdict!r}")
    summary = payload["summary"]
    for v in VERDICTS:
        count = sum(r["verdict"] == v for r in records)
        if summary.get(v) != count:
            problems.append(f"summary.{v} is {summary.get(v)!r}, records give {count}")
    warnings = payload["warnings"]
    if not isinstance(warnings, list) or len(warnings) != len(discrepancies):
        problems.append(f"expected {len(discrepancies)} warning(s), got {warnings!r}")
    else:
        for line, r in zip(warnings, discrepancies):
            if not (line.startswith(r["claim_id"] + ": ") and r["stated"] in line and r["computed"] in line):
                problems.append(f"warning {line!r} does not describe {r['claim_id']}")
    absent = [cid for cid in HEADLINE_CLAIMS if cid not in ids]
    if absent:
        problems.append(f"full report lacks claims {absent}")
    if len(discrepancies) != 1:
        problems.append(f"full report has no {EXPECTED_DISCREPANCY} discrepancy")
    return problems


def parse_json_report(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_markdown(text: str, payload) -> list[str]:
    """Check that a markdown report agrees with the JSON report `payload` on
    every record (id, verdict, computed and stated values), the summary and
    the warnings."""
    lines = text.split("\n")
    if len(lines) < 2 or not lines[0].startswith("| claim |"):
        return ["markdown has no claim table"]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    rows, rest = [], lines[2:]
    while rest and rest[0].startswith("| "):
        rows.append([c.strip() for c in rest.pop(0)[2:-2].split(" | ")])
    records = payload["records"]
    if len(rows) != len(records):
        return [f"markdown has {len(rows)} rows, JSON has {len(records)} records"]
    columns = {name: header.index(name) for name in ("claim", "computed", "stated", "verdict") if name in header}
    if len(columns) != 4:
        return [f"markdown header {header!r} lacks a claim, computed, stated or verdict column"]
    problems = []
    for row, r in zip(rows, records):
        if len(row) != len(header):
            problems.append(f"markdown row {row!r} does not match the header")
            continue
        for column, field in (("claim", "claim_id"), ("computed", "computed"), ("stated", "stated"), ("verdict", "verdict")):
            if row[columns[column]] != r[field]:
                problems.append(f"{r['claim_id']}: markdown {column} {row[columns[column]]!r} != JSON {r[field]!r}")
    summaries = [line for line in rest if line.startswith("summary: ")]
    if len(summaries) != 1:
        problems.append("markdown has no single summary line")
    else:
        for item in summaries[0][len("summary: "):].split(", "):
            key, _, value = item.partition("=")
            if str(payload["summary"].get(key)) != value:
                problems.append(f"markdown summary {item!r} != JSON {payload['summary'].get(key)!r}")
    warnings = [line[len("warning: "):] for line in rest if line.startswith("warning: ")]
    if warnings != payload["warnings"]:
        problems.append("markdown warnings differ from JSON warnings")
    return problems


def _tampered(payload, md_text: str | None):
    """Yield (description, json payload, markdown text) variants that a
    correct checker must reject."""
    records = payload["records"]
    first_pass = next(i for i, r in enumerate(records) if r["verdict"] == "pass")
    disc = next(i for i, r in enumerate(records) if r["verdict"] == "discrepancy")

    flipped = copy.deepcopy(payload)
    flipped["records"][first_pass]["verdict"] = "fail"
    flipped["summary"]["pass"] -= 1
    flipped["summary"]["fail"] += 1
    yield "pass flipped to fail", flipped, None

    hidden = copy.deepcopy(payload)
    hidden["records"][disc]["verdict"] = "pass"
    hidden["summary"]["discrepancy"] -= 1
    hidden["summary"]["pass"] += 1
    hidden["warnings"] = []
    yield "discrepancy flipped to pass", hidden, None

    silent = copy.deepcopy(payload)
    silent["warnings"] = []
    yield "missing warning", silent, None

    extra = copy.deepcopy(payload)
    r = extra["records"][first_pass]
    r["computed"] += " + 1"
    r["verdict"] = "discrepancy"
    extra["summary"]["pass"] -= 1
    extra["summary"]["discrepancy"] += 1
    extra["warnings"] = sorted(
        extra["warnings"] + [f"{r['claim_id']}: recorded value {r['stated']} differs from recomputed {r['computed']}"]
    )
    yield "extra discrepancy", extra, None

    if md_text is not None:
        row = f"| {records[first_pass]['claim_id']} |"
        lines = md_text.split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith(row))
        lines[i] = lines[i].replace("| pass |", "| fail |")
        yield "markdown verdict flipped", payload, "\n".join(lines)


def selftest(json_text: str, md_text: str | None, config: dict) -> list[str]:
    """Problems with the checker itself: the real report must pass, and each
    tampered copy of it must fail."""
    payload, problems = parse_json_report(json_text)
    if problems:
        return problems
    if check_report(payload, config) or (md_text is not None and check_markdown(md_text, payload)):
        return ["selftest needs a correct full report"]
    problems = []
    for what, bad, bad_md in _tampered(payload, md_text):
        caught = check_report(bad, config) if bad_md is None else check_markdown(bad_md, bad)
        if not caught:
            problems.append(f"checker accepted a report with a {what}")
    return problems
