"""Print the size of each module of the package: its lines, as `wc -l`
counts them, and its AST nodes, as `ast.walk` visits them, then the totals.

Usage, from any directory:

    python3 tools/size.py [SRC]

SRC defaults to this checkout's src/hkverify; pass another package
directory (say, an older checkout's) to compare the two. Standard library
only, and not part of the test suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkverify"


def size(path: Path) -> tuple[int, int]:
    """(lines, AST nodes) of one source file."""
    text = path.read_text()
    return text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *size(path)) for path in sorted(package.glob("*.py"))]
    if not rows:
        print(f"no Python module in {package}", file=sys.stderr)
        return 1
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}} {'lines':>6} {'nodes':>6}")
    for name, lines, nodes in rows:
        print(f"{name:<{width}} {lines:>6} {nodes:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
