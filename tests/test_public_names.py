"""Every public name of the package is used by the package itself: it feeds
a claim, the command line, or an oracle that a claim uses. A top-level
function or class, or a public method, property or dataclass field, that
only tests reach fails here; delete it together with its tests."""

import ast
from collections import Counter
from pathlib import Path

import hkverify

SRC = Path(hkverify.__file__).resolve().parent
TREES = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]

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


def _attribute_reads(node) -> Counter:
    """How often a syntax tree reads each attribute name (`x.name`)."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _members(cls: ast.ClassDef):
    """(name, defining node) of each public method, property and dataclass
    field of a class; an InitVar is an argument, not a member."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and "InitVar" not in ast.unparse(node.annotation)
        ):
            yield node.target.id, node


def test_every_public_definition_is_used_in_the_package():
    statements = [s for tree in TREES for s in tree.body]
    used_by = [(s, _names(s)) for s in statements]
    unused = {
        s.name
        for s in statements
        if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        and not s.name.startswith("_")
        and not any(s.name in names for other, names in used_by if other is not s)
    }
    assert unused - ALLOWED == set()


def test_every_public_member_is_read_in_the_package():
    reads = sum((_attribute_reads(tree) for tree in TREES), Counter())
    unread = {
        f"{cls.name}.{name}"
        for tree in TREES
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name, node in _members(cls)
        if not name.startswith("_") and reads[name] == _attribute_reads(node)[name]
    }
    assert unread == set()
