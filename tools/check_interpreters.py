"""Check that `python -m hkverify report` prints the golden report bytes
under every installed interpreter of Python 3.10 or later.

Usage, from any directory:

    python3 tools/check_interpreters.py

The interpreters are every ~/.pyenv/versions/*/bin/python3 and
~/miniconda/bin/python3 that exists; one whose version is below 3.10, or
that does not start, is skipped. Each remaining one runs
`python -m hkverify report --format json` and `--format md` with
PYTHONPATH=src, one process at a time and each with a timeout, and its
stdout is compared byte for byte with tests/golden/report.json and
tests/golden/report.md. `lattice.Poly` keys its terms by packed ints in
dicts, so this checks that the report's bytes do not depend on the
interpreter. Prints one line per run and exits 1 on any mismatch, error or
timeout, or when no interpreter qualifies; else 0. Standard library only,
and not part of the test suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MIN_VERSION = (3, 10)
TIMEOUT_S = 60
# valid in every Python, so an old interpreter reports its version too
VERSION_CODE = 'import sys; print("%d %d" % sys.version_info[:2])'


def interpreters() -> list[Path]:
    home = Path.home()
    found = sorted(home.glob(".pyenv/versions/*/bin/python3"))
    conda = home / "miniconda" / "bin" / "python3"
    return found + [conda] if conda.exists() else found


def version(python: Path) -> tuple[int, int] | None:
    """(major, minor) of the interpreter, or None when it does not run."""
    try:
        run = subprocess.run(
            [str(python), "-c", VERSION_CODE],
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    major, minor = map(int, run.stdout.split())
    return (major, minor)


def check(python: Path, fmt: str, env: dict[str, str]) -> str | None:
    """None when the report in `fmt` is the golden one, else the problem."""
    try:
        run = subprocess.run(
            [str(python), "-m", "hkverify", "report", "--format", fmt],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if run.returncode != 0:
        return f"exit {run.returncode}: {run.stderr.decode(errors='replace').strip()}"
    if run.stdout != (GOLDEN / f"report.{fmt}").read_bytes():
        return "output differs from the golden report"
    return None


def main() -> int:
    # no bytecode is written, so a run leaves no files behind
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = failures = 0
    for python in interpreters():
        found = version(python)
        if found is None or found < MIN_VERSION:
            continue
        for fmt in ("json", "md"):
            problem = check(python, fmt, env)
            runs += 1
            failures += problem is not None
            print(f"{python} ({found[0]}.{found[1]}) --format {fmt}: {problem or 'golden bytes'}")
    if not runs:
        print("no interpreter of Python 3.10 or later found", file=sys.stderr)
        return 1
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
