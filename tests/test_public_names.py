"""Every public name of the package is used by the package itself: it feeds
a claim, the command line, or an oracle that a claim uses. A top-level
function or class, or a public method, property or dataclass field, that
only tests reach fails here; delete it together with its tests.

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
