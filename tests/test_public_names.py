"""Every public top-level function and class of the package is used by the
package itself: it feeds a claim, the command line, or an oracle that a
claim uses. A definition that only tests reach fails here; delete it
together with its tests."""

import ast
from pathlib import Path

import hkverify

SRC = Path(hkverify.__file__).resolve().parent

# The brute-force search the tests compare nocamere_bound against.
ALLOWED = {"max_negative_square"}


def _names(node) -> set[str]:
    """Names a syntax tree reads, as variables or as attributes; an import
    alone is not a use."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_every_public_definition_is_used_in_the_package():
    statements = [s for path in sorted(SRC.glob("*.py")) for s in ast.parse(path.read_text()).body]
    used_by = [(s, _names(s)) for s in statements]
    unused = {
        s.name
        for s in statements
        if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        and not s.name.startswith("_")
        and not any(s.name in names for other, names in used_by if other is not s)
    }
    assert unused - ALLOWED == set()
