"""Fuzz the argparse surface in process: any subcommand with any mix of its
flags, small ints, small rationals and junk tokens must exit 0, 1 or 2 and
never raise."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkverify.cli import _CHERN_TABLE, main
from hkverify.report import CLAIMS

JUNK = st.sampled_from(
    ["", "x", "1.5", "nan", "inf", "1/0", "-", "--", "0x1f", "1e3", ",", "1,2", "1,2,3,4", "-h"]
)
POSITIVE = st.integers(1, 12).map(str)
INTS = st.integers(-1000, 1000).map(str)
RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(-6, 6))
# int flags mostly get valid values, so most runs get past the argument parser
INT_VALUES = st.one_of(POSITIVE, POSITIVE, INTS, RATIONALS, JUNK)
RATIONAL_VALUES = st.one_of(POSITIVE, INTS, RATIONALS, RATIONALS, JUNK)
TRIPLE = st.lists(st.one_of(st.integers(-5, 5).map(str), RATIONALS), min_size=3, max_size=3)
CLASS = st.one_of(TRIPLE.map(",".join), TRIPLE.map(",".join), JUNK)
SIDE = st.sampled_from(["A", "B", "C"])
PREFIXES = sorted({c.claim_id.split("-")[0] + "-" for c in CLAIMS})

FLAGS = {
    "report": {
        "--format": st.sampled_from(["json", "md", "xml"]),
        "--only": st.one_of(st.sampled_from(PREFIXES), JUNK),
    },
    "fujiki": {"--abar": INT_VALUES, "--d": INT_VALUES, "--side": SIDE},
    "rr": {
        "--q": RATIONAL_VALUES,
        "--abar": INT_VALUES,
        "--d": INT_VALUES,
        "--side": SIDE,
        "--cls": CLASS,
    },
    "walls": {},
    "ample": {"--abar": INT_VALUES, "--d": INT_VALUES, "--m": INT_VALUES},
    "modularity": {
        "--x": RATIONAL_VALUES,
        "--y": RATIONAL_VALUES,
        "--abar": INT_VALUES,
        "--d": INT_VALUES,
    },
    "chern": {
        "--a": INT_VALUES,
        "--entry": st.one_of(st.sampled_from([e for e, _, _ in _CHERN_TABLE]), JUNK),
    },
    "fiber": {
        "--m": INT_VALUES,
        "--d": INT_VALUES,
        "--r1p": INT_VALUES,
        "--r1pp": INT_VALUES,
        "--r2": INT_VALUES,
    },
    "monodromy": {},
    "semihom": {"--deg-f": INT_VALUES, "--n": INT_VALUES, "--d0": INT_VALUES},
}

#: Flags that are usually drawn: the required ones, and rr's alternatives.
USUAL = {
    "fujiki": ("--abar", "--d"),
    "rr": ("--q", "--abar", "--d", "--cls"),
    "ample": ("--abar", "--d"),
    "modularity": ("--x", "--y"),
    "chern": ("--a",),
    "fiber": ("--m", "--d"),
    "semihom": ("--deg-f", "--n", "--d0"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS) + ["bogus"]))
    flags = FLAGS.get(command, {})
    names = [f for f in USUAL.get(command, ()) if draw(st.integers(0, 9))]
    if flags:
        names += draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))
    argv = [command]
    for flag in names:
        argv += [flag, draw(flags[flag])]
    if command == "fujiki":
        count = draw(st.sampled_from([4, 4, 4, 3, 5]))
        argv += draw(st.lists(CLASS, min_size=count, max_size=count))
    return argv


@settings(max_examples=150)
@given(argvs())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


NEGATIVE = st.one_of(
    st.integers(-20, -1).map(str),
    st.builds(lambda p, q: f"-{p}/{q}", st.integers(1, 20), st.integers(1, 6)),
)
NONNEGATIVE = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 20), st.integers(1, 6))
VALID_RATIONAL = st.one_of(NEGATIVE, NONNEGATIVE)
NEGATIVE_CLASS = st.builds(
    lambda first, rest: ",".join([first, *rest]),
    NEGATIVE,
    st.lists(VALID_RATIONAL, min_size=2, max_size=2),
)


@settings(max_examples=100)
@given(
    st.sampled_from(["fujiki", "rr", "modularity"]),
    st.lists(NEGATIVE_CLASS, min_size=4, max_size=4),
    NEGATIVE,
    VALID_RATIONAL,
)
def test_negative_values_parse_as_values(command, classes, x, y):
    # a value that starts with "-" and a digit is read as a value, so it
    # behaves like its spelling that argparse cannot mistake for an option
    common = {"fujiki": ["--abar", "1", "--d", "3"], "rr": ["--abar", "1", "--d", "5"]}
    argv = [command, *common.get(command, [])]
    if command == "fujiki":
        bare, spelled = argv + classes, argv + ["--", *classes]
    elif command == "rr":
        bare, spelled = argv + ["--cls", classes[0]], argv + [f"--cls={classes[0]}"]
    else:
        bare, spelled = argv + ["--x", x, "--y", y], argv + [f"--x={x}", f"--y={y}"]
    code, out = _run(bare)
    assert code != 2, bare
    assert (code, out) == _run(spelled)


@pytest.mark.parametrize(
    ("argv", "out"),
    [
        (["fujiki", "--abar", "1", "--d", "3", "-1,0,0", "0,0,1", "0,0,1", "0,0,1"], "0\n"),
        (["rr", "--abar", "1", "--d", "5", "--cls", "-2,0,1"], "63\n"),
        (["rr", "--q", "-1/2"], "63/32\n"),
        (["modularity", "--x", "-1/2", "--y", "0"], "NotModular\n"),
        (["modularity", "--x", "-1", "--y", "0"], "Modular (coefficient 54)\n"),
        # the twist is x - y: -1 is modular, +1 is not
        (["modularity", "--x", "1/2", "--y", "3/2"], "Modular (coefficient 54)\n"),
        (["modularity", "--x", "3/2", "--y", "1/2"], "NotModular\n"),
    ],
)
def test_negative_values_from_the_command_line(argv, out):
    assert _run(argv) == (0, out)
