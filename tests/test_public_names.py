"""Every public name of the package is used by the package itself: it feeds
a claim, the command line, or an oracle that a claim uses. A top-level
function, class or constant, or a public method, property or field (a name
in a class's `__slots__`), that only tests reach fails here; delete it
together with its tests.

The name checks read the source, so a member counts as read whenever any
member of the same name is; the execution check below has no such blind
spot: every function and method, dunders included, must actually run."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hkverify

SRC = Path(hkverify.__file__).resolve().parent
PATHS = sorted(SRC.glob("*.py"))
TREES = [ast.parse(path.read_text()) for path in PATHS]
README = SRC.parents[1] / "README.md"

# The brute-force search the tests compare nocamere_bound against.
ALLOWED = {"max_negative_square"}

# Runs in a fresh interpreter with the profiler on before the import, so code
# that runs only at import time (decorators, module constants) counts as run.
# Prints the (file, first line, name) of every code object called and the
# exit code of each command line run.
_PROBE = """
import contextlib, io, json, sys
ran = set()
def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        ran.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(record)
import hkverify.cli
from hkverify.report import run_report
run_report()
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["hkverify", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            hkverify.cli.main_entry()
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"ran": sorted(ran), "codes": codes}))
"""


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
    """(name, defining node) of each method, property and field of a class:
    a field is a name in `__slots__` or a class-body annotation."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            for slot in ast.literal_eval(node.value):
                yield slot, node


def _defined(statement) -> list[str]:
    """Names a top-level statement defines: a function, a class, or a
    constant assigned to a plain name (`X = ...`, `X: int = ...`)."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def test_every_public_definition_is_used_in_the_package():
    statements = [s for tree in TREES for s in tree.body]
    used_by = [(s, _names(s)) for s in statements]
    unused = {
        name
        for s in statements
        for name in _defined(s)
        if not name.startswith("_")
        and not any(name in names for other, names in used_by if other is not s)
    }
    assert unused - ALLOWED == set()


def _unread_members(trees) -> set[str]:
    """Class.member for each public member that no code outside its own
    definition reads as an attribute; assigning it is not a read."""
    reads = sum((_attribute_reads(tree) for tree in trees), Counter())
    return {
        f"{cls.name}.{name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name, node in _members(cls)
        if not name.startswith("_") and reads[name] == _attribute_reads(node)[name]
    }


def test_every_public_member_is_read_in_the_package():
    assert _unread_members(TREES) == set()


def test_an_unread_slot_field_is_flagged():
    tree = ast.parse(
        "class Point:\n"
        "    __slots__ = ('x', 'y')\n"
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
        "        self.y = y\n"
        "def first(point):\n"
        "    return point.x\n"
    )
    assert _unread_members([tree]) == {"Point.y"}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> name of every function and method in the
    package, nested ones included; a decorated def's code object starts at
    its first decorator."""
    out = {}
    for path, tree in zip(PATHS, TREES):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = node.name
    return out


def test_every_function_runs_in_the_report_or_a_readme_example():
    examples = [
        line.split() for line in re.findall(r"^(?:\$ )?hkverify (.+)$", README.read_text(), re.M)
    ]
    assert ["report"] in examples
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + (os.pathsep + path if path else ""))
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(examples)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["codes"] == [0] * len(examples)
    ran = {(str(Path(f).resolve()), line) for f, line, _ in probe["ran"]}
    never_ran = {
        f"{Path(f).name}:{line} {name}"
        for (f, line), name in _defined_functions().items()
        if (f, line) not in ran and name not in ALLOWED
    }
    assert never_ran == set()
