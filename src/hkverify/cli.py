"""Command line front end.

`hkverify report` recomputes every recorded claim and prints the
verification report; the other subcommands expose the individual
calculators (quartic integrals, Riemann-Roch, wall numerics, ampleness,
modularity, Chern numbers, fiber data, monodromy counts, simplicity).
Exit status: 0 on success (expected discrepancies included), 1 on a
failed recomputation, invalid domain input or an unwritable stdout, 2 on
usage errors.

Importing this module loads only the parser and compiles no pattern. Each
subcommand, and each argument type, imports the modules it runs when it
runs, so `--help` loads no math module (nor `fractions`), a calculator loads
only its own and `report` loads `json` only for `--format json`. `main` has
no side effect beyond its output; `main_entry`, the console script, ends the
process and leaves its objects out of the interpreter's shutdown collections.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

#: (entry, label, name of its `chern` entry) for `chern`: `--entry` prints
#: the value of one entry at a, and without it every labelled row is printed
#: in this order. The unlabelled row is a constant, its function takes no a.
_CHERN_TABLE = (
    ("ch1-fourth", "ch1^4", "ch1_fourth"),
    ("ch1sq-ch2-stated", "ch1^2.ch2 (stated)", "ch1sq_ch2_stated"),
    ("ch1sq-ch2-derived", "ch1^2.ch2 (derived)", "ch1sq_ch2_derived"),
    ("ch1-ch3", "ch1.ch3", "ch1_ch3"),
    ("ch2-squared", "ch2^2", "ch2_squared"),
    ("ch4", "ch4", "ch4_integral"),
    ("chi", "chi", "chi_bundle"),
    ("chi-end", "chi(End)", "chi_end"),
    ("chi-end0", "chi(End0)", "chi_end_traceless"),
    ("a-invariant", None, "a_invariant"),
)


#: An integer (-3), a quotient of integers (1/2) or a decimal (-0.5, .5, 2.),
#: with an optional sign and surrounding blanks. Fraction itself also reads
#: exponents, and 1e10000000 would build a ten-million-digit integer.
_RATIONAL = r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*"

#: An integer as int() reads it: sign, blanks and single underscores
#: between digits.
_INTEGER = r"\s*[+-]?\d(_?\d)*\s*"

#: The usage error for a well-formed literal that only the int-to-string
#: digit limit refuses; it names the limit instead of echoing the digits.
_TOO_LONG = "a literal of more than {} digits exceeds the interpreter's limit"


def _integer(text: str) -> int:
    """int(text), with the digit limit reported like `_fraction` does."""
    try:
        return int(text)
    except ValueError as exc:
        if re.fullmatch(_INTEGER, text):
            from .lattice import digit_limit

            raise argparse.ArgumentTypeError(_TOO_LONG.format(digit_limit())) from exc
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc


def _fraction(text: str):
    """Fraction(text) for a literal that `_RATIONAL` matches."""
    from fractions import Fraction

    if not re.fullmatch(_RATIONAL, text):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    except ValueError as exc:
        # the grammar matched, so only the int-to-string digit limit is left
        from .lattice import digit_limit

        raise argparse.ArgumentTypeError(_TOO_LONG.format(digit_limit())) from exc


def _class_coeffs(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"a class needs three comma-separated coefficients, got {text!r}"
        )
    return tuple(_fraction(p) for p in parts)


def _side_model(abar: int, d: int, side: str):
    from .lattice import AbelianSurfaceModel, _reject

    # side A carries the doubled polarization square, side B the halved one
    if abar < 1 or d < 1:
        _reject("abar and d", abar, d)
    return AbelianSurfaceModel(4 * abar if side == "A" else 2 * abar, d)


class _Parser(argparse.ArgumentParser):
    """Reads a token of "-", a digit or ".", then digits, ".", "/", "," and
    "-" (such as -1/2 or -1,-2,0) as a value, not as an option; no hkverify
    option starts with a digit. Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # replaces argparse's own test, which admits only -12 and -1.5
        self._negative_number_matcher = re.compile(r"^-[\d.][\d./,-]*$")

    def _print_message(self, message, file=None):
        # argparse drops a failed write, but one to stdout must reach main's
        # OSError branch; stderr and a stdout closed at startup (None) do not
        if file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hkverify",
        description="Exact verification of the rank-4 modular bundle numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="recompute every recorded claim")
    rep.add_argument("--format", choices=("json", "md"), default="json")
    rep.add_argument("--only", help="keep claims with this id prefix")

    fuj = sub.add_parser("fujiki", help="integrate a product of four classes")
    fuj.add_argument("--abar", type=_integer, required=True)
    fuj.add_argument("--d", type=_integer, required=True)
    fuj.add_argument("--side", choices=("A", "B"), default="A")
    fuj.add_argument("classes", type=_class_coeffs, nargs=4, metavar="p,q,x")

    rr = sub.add_parser("rr", help="Euler characteristic of a line bundle")
    rr.add_argument("--q", type=_fraction, default=None, help="square of c1")
    rr.add_argument("--abar", type=_integer, default=None)
    rr.add_argument("--d", type=_integer, default=None)
    rr.add_argument("--side", choices=("A", "B"), default="A")
    rr.add_argument("--cls", type=_class_coeffs, default=None, metavar="p,q,x")

    sub.add_parser("walls", help="wall numerics for the moduli vector")

    amp = sub.add_parser("ample", help="decide ampleness of 2m*mu(omegabar) - delta")
    amp.add_argument("--abar", type=_integer, required=True)
    amp.add_argument("--d", type=_integer, required=True)
    amp.add_argument("--m", type=_integer, default=1)

    mod = sub.add_parser("modularity", help="test the discriminant proportionality")
    mod.add_argument("--x", type=_fraction, required=True)
    mod.add_argument("--y", type=_fraction, required=True)
    mod.add_argument("--abar", type=_integer, default=1)
    mod.add_argument("--d", type=_integer, default=3)

    che = sub.add_parser("chern", help="Chern numbers of the rank-4 bundle")
    che.add_argument("--a", type=_integer, required=True)
    che.add_argument("--entry", choices=sorted(e for e, _, _ in _CHERN_TABLE), default=None)

    fib = sub.add_parser("fiber", help="fiber degrees and subsheaf ranks")
    fib.add_argument("--m", type=_integer, required=True)
    fib.add_argument("--d", type=_integer, required=True)
    fib.add_argument("--r1p", type=_integer, default=None)
    fib.add_argument("--r1pp", type=_integer, default=None)
    fib.add_argument("--r2", type=_integer, default=None)

    sub.add_parser("monodromy", help="monodromy counts on torsion points")

    sem = sub.add_parser("semihom", help="simplicity of a semi-homogeneous bundle")
    sem.add_argument("--deg-f", type=_integer, required=True)
    sem.add_argument("--n", type=_integer, required=True)
    sem.add_argument("--d0", type=_integer, required=True)

    return parser


def _cmd_report(args) -> int:
    from .report import ReportConfig, exit_code, run_report, to_json, to_markdown

    report = run_report(ReportConfig(only=args.only))
    text = to_json(report) if args.format == "json" else to_markdown(report)
    print(text, end="")
    return exit_code(report)


def _cmd_fujiki(args) -> int:
    from .kummer import KummerTwoClass, fujiki_integral
    from .lattice import _number_text

    model = _side_model(args.abar, args.d, args.side)
    cs = [KummerTwoClass(model, *coeffs) for coeffs in args.classes]
    print(_number_text(fujiki_integral(*cs)))
    return 0


def _cmd_rr(args) -> int:
    from .kummer import KummerTwoClass, riemann_roch, riemann_roch_from_square
    from .lattice import _number_text

    if args.q is not None:
        print(_number_text(riemann_roch_from_square(args.q)))
        return 0
    if args.cls is None or args.abar is None or args.d is None:
        raise ValueError("rr needs either --q or --abar/--d/--cls")
    model = _side_model(args.abar, args.d, args.side)
    print(_number_text(riemann_roch(KummerTwoClass(model, *args.cls))))
    return 0


def _cmd_walls(args) -> int:
    from .walls import generate_wall_cases

    cases = generate_wall_cases()
    for ss, sv, n, q, divs in cases:
        if q < 0:
            listed = ",".join(str(v) for v in sorted(divs))
            print(f"ss={ss} sv={sv} n={n} q={q} div in {{{listed}}}")
    for ss, sv, _, q, _ in cases:
        if q >= 0:
            print(f"discarded: ss={ss} sv={sv} (square {q} is not negative)")
    return 0


def _cmd_ample(args) -> int:
    from .walls import ampleness_text

    print(ampleness_text(args.abar, args.d, args.m))
    return 0


def _cmd_modularity(args) -> int:
    from .blowup import is_modular_bundle

    model = _side_model(args.abar, args.d, "A")
    modular, coeff = is_modular_bundle(args.x - args.y, model)
    print(f"Modular (coefficient {coeff})" if modular else "NotModular")
    return 0


def _cmd_chern(args) -> int:
    from . import chern
    from .lattice import _number_text, _reject

    if args.a < 1:
        _reject("a", args.a)
    if args.entry is None:
        print(f"a = {args.a}")
    for entry, label, name in _CHERN_TABLE:
        fn = getattr(chern, name)
        if entry == args.entry:
            print(_number_text(fn(args.a) if label else fn()))
        elif args.entry is None and label is not None:
            print(f"{label} = {_number_text(fn(args.a))}")
    return 0


def _cmd_fiber(args) -> int:
    from .fiber import SubsheafProfile, fiber_degrees, subsheaf_rank
    from .lattice import _number_text

    ranks = (args.r1p, args.r1pp, args.r2)
    if any(v is not None for v in ranks):
        if any(v is None for v in ranks):
            raise ValueError("a profile needs all of --r1p, --r1pp, --r2")
        profile = SubsheafProfile(*ranks)
        print(_number_text(subsheaf_rank(profile, args.m, args.d)))
        return 0
    deg_v, deg_delta = fiber_degrees(args.m, args.d)
    print(f"deg V component = {_number_text(deg_v)}")
    print(f"deg Delta component = {_number_text(deg_delta)}")
    return 0


def _cmd_monodromy(args) -> int:
    from .fiber import (
        invariant_torsion_cosets,
        monodromy_fixed_points,
        monodromy_group,
        only_trivial_coset,
        only_zero_fixed,
    )

    print(f"group order on 2-torsion: {len(monodromy_group(2))}")
    fixed = monodromy_fixed_points()
    zero_only = only_zero_fixed(fixed)
    print(f"fixed 2-torsion points: {len(fixed)}" + (" (zero only)" if zero_only else ""))
    cosets = invariant_torsion_cosets()
    trivial = only_trivial_coset(cosets)
    print(
        f"invariant 2-torsion cosets in 4-torsion: {len(cosets)}"
        + (" (trivial coset)" if trivial else "")
    )
    return 0


def _cmd_semihom(args) -> int:
    from .abelian import is_simple_semihom, is_simple_via_kernel, power_or_text

    deg_f, n, d0 = args.deg_f, args.n, args.d0
    simple = is_simple_semihom(deg_f, n, d0)
    if simple != is_simple_via_kernel(deg_f, n, d0):
        raise ArithmeticError("the two simplicity criteria disagree")
    if not simple:
        print("NotSimple")
        return 0
    # the rank deg_f^n and the fiber count (n+1)*d0^n
    print(f"Simple (rank {power_or_text(1, deg_f, n)}, fiber count {power_or_text(n + 1, d0, n)})")
    return 0


_COMMANDS = {
    "report": _cmd_report,
    "fujiki": _cmd_fujiki,
    "rr": _cmd_rr,
    "walls": _cmd_walls,
    "ample": _cmd_ample,
    "modularity": _cmd_modularity,
    "chern": _cmd_chern,
    "fiber": _cmd_fiber,
    "monodromy": _cmd_monodromy,
    "semihom": _cmd_semihom,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
        finally:
            # a failed write to stdout surfaces here, not at interpreter exit;
            # a process started with stdout closed has None, and print skips it
            if sys.stdout is not None:
                sys.stdout.flush()
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # stdout is a full device or a closed pipe: what it still buffers
        # goes to devnull, so the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    """Run `main` and exit with its status. The process is ending and `main`
    has flushed stdout, so every object is frozen on the way out (0, 1 and 2
    alike): interpreter shutdown then leaves them out of its cyclic
    collections, and the module graph is neither traced nor torn down.
    atexit handlers and the interpreter's last flush still run."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    main_entry()
