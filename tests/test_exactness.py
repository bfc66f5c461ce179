"""The package's one number contract: class coefficients stay ints where
they are integral, and every public form returns what its exact arithmetic
gives, on integral inputs an int wherever the value is whole, and otherwise
an int or a Fraction, equal to the plain-Fraction formula. The Chern
numbers, Polys in a, are at an int an int or a Fraction equal to their
closed form, and at a float a they raise TypeError. No claim value is a
float. Every int parameter's TypeError, and every "must be a positive
integer" ValueError, is raised by `lattice._reject`, which valid calls never
reach."""

import ast
import inspect
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hkverify.abelian
import hkverify.chern
import hkverify.fiber
import hkverify.lattice
import hkverify.walls
from hkverify.blowup import (
    XTwoClass,
    ch1_bundle,
    ch1_bundle_via_pushforward,
    ch2_pairing,
    x_quartic,
)
from hkverify.chern import Poly
from hkverify.fiber import SubsheafProfile, fiber_degrees_gram
from hkverify.kummer import (
    KummerTwoClass,
    bbf,
    c2_pair,
    fujiki_integral,
    fujiki_symmetrized,
    mu_pair,
)
from hkverify.lattice import AbelianSurfaceModel, _coef, _quotient, _reject
from hkverify.report import CLAIMS, ReportConfig, run_report

BIG = AbelianSurfaceModel(4, 5)
SMALL = AbelianSurfaceModel(2, 5)

# bounded rationals with denominators 1..6: integral ones take the int path,
# the others the Fraction path
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def big_classes():
    return st.builds(lambda p, q, x: KummerTwoClass(BIG, p, q, x), rationals, rationals, rationals)


def x_classes():
    return st.builds(
        lambda p, q, x, t: XTwoClass(KummerTwoClass(SMALL, p, q, x), t),
        rationals,
        rationals,
        rationals,
        rationals,
    )


def _floats(value, path="value"):
    """Paths to every float inside a claim value."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, (tuple, list)):
        return [f for i, v in enumerate(value) for f in _floats(v, f"{path}[{i}]")]
    if isinstance(value, Poly):
        return _floats(value.coeffs, f"{path}.coeffs")
    return []


SWEEP_GRID = ReportConfig(abar_max=8, a_max=200, md_max=121, samples=150, seed=1)


@pytest.mark.parametrize("cfg", [ReportConfig(), SWEEP_GRID], ids=["default", "sweep-grid"])
def test_no_claim_value_is_a_float(cfg):
    floats = [f for c in CLAIMS for f in _floats(c.compute(cfg), c.claim_id)]
    assert floats == []


#: The math functions that take and give ints only.
_INT_MATH = {"gcd", "lcm", "isqrt", "factorial"}


def test_src_uses_no_floats():
    # every module of the package, parsed: a float literal, the name float,
    # or a float function of math (log10 was one) is a float in the number
    # layer
    found = []
    for path in sorted(Path(hkverify.lattice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((path.name, node.lineno, node.value))
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append((path.name, node.lineno, "float"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name not in _INT_MATH]
            elif isinstance(node, ast.Import):
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name == "math"]
    assert found == []


def test_coefficients_are_ints_where_integral():
    assert _coef(Fraction(6, 3)) == 2 and type(_coef(Fraction(6, 3))) is int
    assert type(_coef(True)) is int
    assert _coef(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        _coef(0.5)
    c = XTwoClass(KummerTwoClass(SMALL, Fraction(4, 2), 3, Fraction(-1, 3)), Fraction(5))
    assert [type(v) for v in (*c.base.coeffs(), c.t)] == [int, int, Fraction, int]


# The plain-Fraction formulas, written out with no int path.


def _mu_pair(a: KummerTwoClass, b: KummerTwoClass) -> Fraction:
    w, d = Fraction(a.model.self_omega), Fraction(a.model.mixed_d)
    p, q, p2, q2 = map(Fraction, (a.p, a.q, b.p, b.q))
    return w * p * p2 + d * (p * q2 + q * p2)


def _bbf(a: KummerTwoClass, b: KummerTwoClass) -> Fraction:
    return _mu_pair(a, b) - 6 * Fraction(a.x) * Fraction(b.x)


def _fujiki(b1, b2, b3, b4) -> Fraction:
    q = _bbf
    return 3 * (q(b1, b2) * q(b3, b4) + q(b1, b3) * q(b2, b4) + q(b1, b4) * q(b2, b3))


def _vf(a: KummerTwoClass, b: KummerTwoClass) -> Fraction:
    return 18 * _mu_pair(a, b) - 81 * Fraction(a.x) * Fraction(b.x)


def _x_quartic(cs) -> Fraction:
    total = Fraction(0)
    for picks in product((False, True), repeat=4):
        factor = prod((Fraction(c.t) for c, e in zip(cs, picks) if e), start=Fraction(1))
        bases = [c.base for c, e in zip(cs, picks) if not e]
        rules = {
            0: lambda: _fujiki(*bases),
            1: lambda: Fraction(0),
            2: lambda: -_vf(*bases),
            3: lambda: 81 * Fraction(bases[0].x),
            4: lambda: Fraction(162),
        }
        total += factor * rules[4 - len(bases)]()
    return total


def _pullback(c: KummerTwoClass) -> XTwoClass:
    x = Fraction(c.x)
    return XTwoClass(KummerTwoClass(SMALL, 2 * Fraction(c.p), Fraction(c.q), x), x)


def _ch2_pairing(line, alpha, beta) -> Fraction:
    u, v = _pullback(alpha), _pullback(beta)
    d = XTwoClass(KummerTwoClass(SMALL, 0, 0, 0), Fraction(1))
    tt = Fraction(u.t) * Fraction(v.t)
    c2x = 54 * _bbf(u.base, v.base) - 243 * tt + _vf(u.base, v.base) - 81 * tt
    return (
        (_x_quartic((line, line, u, v)) - _x_quartic((line, d, u, v))) / 2
        + (_x_quartic((d, d, u, v)) + c2x) / 12
        - 18 * _bbf(alpha, beta)
    )


def _exactly(value, expected):
    assert type(value) in (int, Fraction)
    assert value == expected


@given(big_classes(), big_classes())
def test_bbf_matches_the_fraction_formula(a, b):
    _exactly(bbf(a, b), _bbf(a, b))


@given(big_classes(), big_classes(), big_classes(), big_classes())
def test_fujiki_integral_matches_the_fraction_formula(b1, b2, b3, b4):
    _exactly(fujiki_integral(b1, b2, b3, b4), _fujiki(b1, b2, b3, b4))


@given(x_classes(), x_classes(), x_classes(), x_classes())
def test_x_quartic_matches_the_fraction_formula(c1, c2, c3, c4):
    _exactly(x_quartic(c1, c2, c3, c4), _x_quartic((c1, c2, c3, c4)))


@given(rationals, rationals, rationals, rationals, big_classes(), big_classes())
def test_ch2_pairing_matches_the_fraction_formula(p, q, x, y, alpha, beta):
    line = XTwoClass(KummerTwoClass(SMALL, p, q, x), y)
    _exactly(ch2_pairing(line, alpha, beta), _ch2_pairing(line, alpha, beta))


def test_integral_inputs_give_ints():
    e = KummerTwoClass(BIG, 0, 0, 1)
    assert type(bbf(e, e)) is int
    assert type(fujiki_integral(e, e, e, e)) is int
    assert type(c2_pair(e, e)) is int
    d = XTwoClass(KummerTwoClass(SMALL, 0, 0, 0), 1)
    assert type(x_quartic(d, d, d, d)) is int
    line = XTwoClass(KummerTwoClass(SMALL, 1, 0, 0), 0)
    assert type(mu_pair(line.base, line.base)) is int
    # these two divide, by 12 and by 8
    assert type(ch2_pairing(line, e, e)) in (int, Fraction)
    assert type(fujiki_symmetrized(e, e, e, e)) in (int, Fraction)


def test_exact_quotients_are_ints_where_integral():
    # _quotient divides two ints exactly as //, and sends every other
    # quotient through _coef, so a division that comes out integral gives
    # an int either way, as a coefficient does
    e = KummerTwoClass(BIG, 0, 0, 1)
    line = XTwoClass(KummerTwoClass(SMALL, 1, 0, 0), 0)
    assert ch2_pairing(line, e, e) == 45 and type(ch2_pairing(line, e, e)) is int
    assert type(_quotient(90, 2)) is int and type(_quotient(Fraction(9, 2), Fraction(3, 2))) is int
    assert _quotient(1, 2) == Fraction(1, 2)
    assert _quotient(Poly((2, 4)), 2) == Poly((1, 2))
    # a Poly's value and a Gram pairing pass through _coef the same way
    assert type(hkverify.chern.chi_bundle(1)) is int
    assert [type(v) for v in fiber_degrees_gram(1, 10)] == [int, int]


# The int fast paths accept and refuse exactly what the slow paths do.


@given(st.integers(), st.integers().filter(bool))
def test_quotient_of_ints_is_the_fraction_quotient(x, k):
    # x * k takes the int path, x most often the Fraction one
    for n in (x, x * k):
        value, expected = _quotient(n, k), _coef(Fraction(n, k))
        assert value == expected and type(value) is type(expected)


def test_quotient_fast_path_keeps_the_slow_paths_errors_and_types():
    for x in (0, 6, -7, True):
        with pytest.raises(ZeroDivisionError):
            _quotient(x, 0)
    with pytest.raises(ZeroDivisionError):
        _quotient(6, False)
    # a bool is not an exact int: it takes the Fraction path and comes out
    # an int all the same
    assert [type(_quotient(*a)) for a in ((True, 1), (4, True), (False, 3))] == [int] * 3
    # a float is no exact value, on either side
    for args in ((6.0, 3), (6, 3.0), (0.5, 1)):
        with pytest.raises(TypeError):
            _quotient(*args)


def test_class_coefficients_take_ints_as_they_are_and_bools_as_ints():
    c = KummerTwoClass(BIG, True, 0, 0)
    assert c.p == 1 and type(c.p) is int
    assert [type(v) for v in KummerTwoClass(BIG, False, True, False).coeffs()] == [int] * 3
    t = XTwoClass(KummerTwoClass(SMALL, 0, 0, 0), True).t
    assert t == 1 and type(t) is int
    for p, q, x in ((1.0, 0, 0), (0, 2.0, 0), (0, 0, 0.5)):
        with pytest.raises(TypeError):
            KummerTwoClass(BIG, p, q, x)
    for t in (1.0, 0.5):
        with pytest.raises(TypeError):
            XTwoClass(KummerTwoClass(SMALL, 0, 0, 0), t)


def test_a_stored_model_is_found_only_by_exact_ints():
    # (4, 5) is stored (BIG); 4.0 and 5.0 hash like 4 and 5, and are still
    # refused before the lookup
    assert AbelianSurfaceModel(4, 5) is BIG
    for args in ((4.0, 5), (4, 5.0), (4.0, 5.0)):
        with pytest.raises(TypeError):
            AbelianSurfaceModel(*args)
    # a bool is checked, then stored and found as its int
    assert AbelianSurfaceModel(2, True) is AbelianSurfaceModel(2, 1)
    with pytest.raises(ValueError):
        AbelianSurfaceModel(True, 5)


# The fact the blowup-ch1-paths certificate relies on: both ch1 paths are
# affine in (p, q, x, y). A map on Q^4 that respects every affine
# combination of two points is affine.

points = st.tuples(rationals, rationals, rationals, rationals)


@pytest.mark.parametrize("path", [ch1_bundle, ch1_bundle_via_pushforward])
@given(a=points, b=points, lam=rationals)
def test_ch1_paths_are_affine(path, a, b, lam):
    def coeffs(point):
        p, q, x, y = point
        return path(XTwoClass(KummerTwoClass(SMALL, p, q, x), y)).coeffs()

    mixed = tuple(lam * u + (1 - lam) * v for u, v in zip(a, b))
    expected = tuple(lam * u + (1 - lam) * v for u, v in zip(coeffs(a), coeffs(b)))
    assert coeffs(mixed) == expected


# Every public Poly entry of chern (or tuple of them), with its documented
# closed form in plain Fractions.
CHERN_CLOSED_FORMS = {
    "ch1_square_q": lambda a: 16 * a - 6,
    "ch1_fourth": lambda a: 2304 * a * a - 1728 * a + 324,
    "ch1sq_c2": lambda a: 864 * a - 324,
    "ch1sq_ch2_stated": lambda a: 576 * a * a - 540 * a + 81,
    "ch1sq_ch2_derived": lambda a: 288 * a * a - 324 * a + 81,
    "gianni_decomposition": lambda a: (27 - 72 * a, Fraction(-27, 2), 36 * a, -9 * a, 24 * a * a),
    "ch1_ch3": lambda a: 24 * a * a - 45 * a + Fraction(27, 2),
    "ch2_squared": lambda a: 36 * a * a - 54 * a + 27,
    "ch2_td2": lambda a: 9 * a - Fraction(45, 4),
    "ch4_integral": lambda a: Fraction(3, 2) * a * a - Fraction(9, 2) * a + Fraction(9, 4),
    "chi_bundle": lambda a: Fraction(3, 2) * a * a + Fraction(9, 2) * a + 3,
    "chi_end_decomposition": lambda a: (48, -63, 18),
    "chi_end": lambda a: 3,
    "chi_end_traceless": lambda a: 0,
}


def _parts(entry):
    """The Polys of a chern entry: the entry itself, or its summands."""
    return entry if isinstance(entry, tuple) else (entry,)


def _at(entry, v):
    values = tuple(p(v) for p in _parts(entry))
    return values if isinstance(entry, tuple) else values[0]


def _chern_entries() -> dict:
    """The public names chern assigns at module level (re-exports such as
    SYMBOL_A are assigned elsewhere) whose value is a Poly or Polys, with
    their values."""
    tree = ast.parse(inspect.getsource(hkverify.chern))
    assigned = {
        t.id
        for s in tree.body
        if isinstance(s, ast.Assign)
        for t in s.targets
        if isinstance(t, ast.Name) and not t.id.startswith("_")
    }
    values = {name: getattr(hkverify.chern, name) for name in assigned}
    return {
        name: value
        for name, value in values.items()
        if all(isinstance(p, Poly) for p in _parts(value))
    }


def test_every_chern_function_of_a_has_a_closed_form():
    assert set(_chern_entries()) == set(CHERN_CLOSED_FORMS)
    # and no function of a is left beside them
    assert not [
        name
        for name, fn in inspect.getmembers(hkverify.chern, inspect.isfunction)
        if "a" in inspect.signature(fn).parameters
    ]


def test_no_two_chern_entries_are_equal():
    # one Poly per quantity: an entry equal to another as a polynomial (or
    # tuple of them) is a second copy of one quantity
    entries = sorted(_chern_entries().items())
    twins = [(m, n) for (m, p), (n, q) in combinations(entries, 2) if p == q]
    assert twins == []


@pytest.mark.parametrize("name", sorted(CHERN_CLOSED_FORMS))
@given(v=st.integers(-10**6, 10**6) | st.sampled_from([-1, 0, 1]))
def test_chern_functions_stay_exact_on_ints(name, v):
    entry = getattr(hkverify.chern, name)
    value = _at(entry, v)
    assert all(type(x) in (int, Fraction) for x in _parts(value))
    assert value == _at(entry, Fraction(v)) == CHERN_CLOSED_FORMS[name](Fraction(v))


@pytest.mark.parametrize("name", sorted(CHERN_CLOSED_FORMS))
def test_chern_functions_reject_floats(name):
    # unchecked, chi_end(1.5) would be 3.0 and ch1_fourth(0.5) 36.0
    for part in _parts(getattr(hkverify.chern, name)):
        with pytest.raises(TypeError):
            part(1.5)


def _takes_int(annotation) -> bool:
    """Whether a parameter's annotation (a string, as every module of the
    package postpones them) is int or a `|` union with int as a member."""
    return isinstance(annotation, str) and "int" in map(str.strip, annotation.split("|"))


def _int_callables() -> dict:
    """Every public function or class of lattice, walls, fiber and abelian
    with a parameter that `_takes_int`, by name: the callable and the
    positions of those parameters."""
    found = {}
    for module in (hkverify.lattice, hkverify.walls, hkverify.fiber, hkverify.abelian):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            params = inspect.signature(obj).parameters.values()
            ints = [i for i, p in enumerate(params) if _takes_int(p.annotation)]
            if ints:
                found[name] = (obj, ints)
    return found


INT_CALLABLES = _int_callables()

_PROFILE = SubsheafProfile(1, 2, 1)

#: One valid call of each of INT_CALLABLES, by its positional arguments.
VALID_INT_CALLS = {
    "nocamere_bound": (1, 0),
    "AbelianSurfaceModel": (4, 5),
    "kummer_divisibility": (2, 0, -1),
    "classify_moduli_case": (10, 2),
    "theorem_hypothesis": (10, 2),
    "mukai_square": (1, 0, -3),
    "ample_thresholds": (1,),
    "is_ample_h": (1, 3, 1),
    "ampleness_text": (1, 3, 1),
    "restriction_c1_fiber_v": (1, 2),
    "restriction_c1_fiber_delta": (1, 2),
    "fiber_degrees": (1, 2),
    "fiber_degrees_gram": (1, 2),
    "SubsheafProfile": (0, 0, 0),
    "subsheaf_rank": (_PROFILE, 1, 9),
    "rank_failures": ([_PROFILE], 9),
    "integer_rank_criterion": (_PROFILE, 1, 9),
    "destabilizer_margin": (1, 2),
    "monodromy_group": (2,),
    "power_or_text": (1, 2, 3),
    "is_simple_semihom": (7, 2, 1),
    "is_simple_via_kernel": (7, 2, 1),
    "zeppola_integral": (2, 1),
    "zeppola_oracle": (2, 1),
    "jh_decompositions": (4, 2, 3),
    "forced_stable": (1, 2, 3),
    "forced_stable_via_jh": (1, 2, 3),
    "satollo_transfer": (1, 5),
}


def _call(fn, args):
    result = fn(*args)
    if isinstance(result, Iterator):
        list(result)  # a generator checks its arguments when consumed
    return result


#: The int parameters of INT_CALLABLES, by name. Pinned in full, so that a
#: changed annotation cannot drop a parameter from the cases below unseen.
INT_PARAMETERS = {
    "AbelianSurfaceModel": ("self_omega", "mixed_d"),
    "SubsheafProfile": ("r1p", "r1pp", "r2"),
    "ample_thresholds": ("abar",),
    "ampleness_text": ("abar", "d", "m"),
    "classify_moduli_case": ("e", "i"),
    "destabilizer_margin": ("r2", "r1pp"),
    "fiber_degrees": ("m", "d"),
    "fiber_degrees_gram": ("m", "d"),
    "forced_stable": ("s0", "c0", "e"),
    "forced_stable_via_jh": ("s0", "c0", "e"),
    "integer_rank_criterion": ("m", "d"),
    "is_ample_h": ("abar", "d", "m"),
    "is_simple_semihom": ("deg_f", "n", "d0"),
    "is_simple_via_kernel": ("deg_f", "n", "d0"),
    "jh_decompositions": ("r", "a", "e"),
    "kummer_divisibility": ("p", "q", "x"),
    "monodromy_group": ("n",),
    "mukai_square": ("r", "ell_sq", "s"),
    "nocamere_bound": ("d0", "q_beta"),
    "power_or_text": ("coeff", "base", "n"),
    "rank_failures": ("md",),
    "restriction_c1_fiber_delta": ("m", "d"),
    "restriction_c1_fiber_v": ("m", "d"),
    "satollo_transfer": ("abar", "d"),
    "subsheaf_rank": ("m", "d"),
    "theorem_hypothesis": ("e", "i"),
    "zeppola_integral": ("n", "d0"),
    "zeppola_oracle": ("n", "d0"),
}


def test_every_int_parameter_has_a_valid_call():
    names = {
        name: tuple(list(inspect.signature(fn).parameters)[i] for i in positions)
        for name, (fn, positions) in INT_CALLABLES.items()
    }
    assert names == INT_PARAMETERS
    assert set(VALID_INT_CALLS) == set(INT_CALLABLES)


def _int_cases() -> list:
    """One case per callable of INT_CALLABLES, with its int positions; the
    parameters of is_ample_h, each range-checked on its own, get a case
    each, named after the parameter."""
    cases = []
    for name in sorted(INT_CALLABLES):
        fn, positions = INT_CALLABLES[name]
        if name == "is_ample_h":
            params = list(inspect.signature(fn).parameters)
            cases += [pytest.param(name, (i,), id=f"{name}_{params[i]}") for i in positions]
        else:
            cases.append(pytest.param(name, positions, id=name))
    return cases


@pytest.mark.parametrize("name,positions", _int_cases())
def test_integer_parameters_reject_non_integers(name, positions):
    # each int parameter of a valid call, swapped for float(v), 0.5 and
    # v + 0.5. Unchecked, these gave -3.0, 1.0, 12.0, (72.0, 72.0), 6.75
    # and 2/9 as a float, zeppola_oracle(2, 1.5) raised ArithmeticError,
    # ample_thresholds gave (21.0, 63.0),
    # power_or_text 15.625, monodromy_group a group of float matrices,
    # classify_moduli_case True, jh_decompositions () and mukai_square 6.5;
    # is_ample_h, satollo_transfer and the stability pair checked a float's
    # range first and raised ValueError. The TypeError must name the
    # parameter the caller passed: rank_failures said "m and d",
    # AbelianSurfaceModel "omegabar^2 and d", and kummer_divisibility and
    # SubsheafProfile named no argument
    fn = INT_CALLABLES[name][0]
    params = list(inspect.signature(fn).parameters)
    args = VALID_INT_CALLS[name]
    _call(fn, args)
    wrong = []
    for i in positions:
        for bad in (float(args[i]), 0.5, args[i] + 0.5):
            call = args[:i] + (bad,) + args[i + 1 :]
            try:
                wrong.append((call, _call(fn, call)))
            except TypeError as exc:
                if not (re.search(rf"\b{params[i]}\b", str(exc)) and _raised_in_reject(exc)):
                    wrong.append((call, exc))
            except Exception as exc:
                wrong.append((call, exc))
    assert wrong == []


def _raised_in_reject(exc: BaseException) -> bool:
    """Whether the innermost frame of exc's traceback is `_reject`'s."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code is _reject.__code__


#: The int parameters of INT_CALLABLES whose rule is "positive": 0 there is
#: "<name> must be a positive integer". The other int parameters have a
#: rule of their own (even, odd, 0..4, >= 2, > 8, ...) or none.
POSITIVE = {
    "nocamere_bound": {"d0"},
    "AbelianSurfaceModel": {"mixed_d"},
    "classify_moduli_case": {"e"},
    "theorem_hypothesis": {"e"},
    "ample_thresholds": {"abar"},
    "is_ample_h": {"abar", "d", "m"},
    "ampleness_text": {"abar", "d", "m"},
    "restriction_c1_fiber_v": {"m", "d"},
    "restriction_c1_fiber_delta": {"m", "d"},
    "fiber_degrees": {"m", "d"},
    "fiber_degrees_gram": {"m", "d"},
    "subsheaf_rank": {"m", "d"},
    "integer_rank_criterion": {"m", "d"},
    "is_simple_semihom": {"deg_f", "n", "d0"},
    "is_simple_via_kernel": {"deg_f", "n", "d0"},
    "zeppola_integral": {"n", "d0"},
    "zeppola_oracle": {"d0"},
    "jh_decompositions": {"r", "e"},
    "forced_stable": {"s0", "e"},
    "forced_stable_via_jh": {"s0", "e"},
    "satollo_transfer": {"abar"},
}


def _int_parameter_cases() -> list:
    """One case per int parameter of INT_CALLABLES, named after both."""
    cases = []
    for name in sorted(INT_CALLABLES):
        fn, positions = INT_CALLABLES[name]
        params = list(inspect.signature(fn).parameters)
        cases += [pytest.param(name, i, id=f"{name}_{params[i]}") for i in positions]
    return cases


@pytest.mark.parametrize("name,position", _int_parameter_cases())
def test_a_zero_positive_parameter_is_rejected_by_the_one_rule(name, position):
    # 0 in a valid call: for a positive-ruled parameter the ValueError names
    # it and comes from _reject; no other parameter gets that message, so
    # the table above is the whole rule
    fn = INT_CALLABLES[name][0]
    param = list(inspect.signature(fn).parameters)[position]
    args = VALID_INT_CALLS[name]
    call = args[:position] + (0,) + args[position + 1 :]
    message = f"{param} must be a positive integer"
    if param in POSITIVE.get(name, ()):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            _call(fn, call)
        assert _raised_in_reject(info.value)
    else:
        try:
            _call(fn, call)
        except ValueError as exc:
            assert str(exc) != message


def test_reject_messages():
    with pytest.raises(TypeError, match="^abar, d and m must be integers$"):
        _reject("abar, d and m", 1, 2.0, 0)
    with pytest.raises(TypeError, match="^n must be an integer$"):
        _reject("n", 1.5)
    with pytest.raises(ValueError, match="^e must be a positive integer$"):
        _reject("s0, c0 and e", 1, 0, 0, positive=("s0", "e"))
    with pytest.raises(ValueError, match="^d must be a positive integer$"):
        _reject("abar, d and m", True, False, -1)
    # called on arguments that pass its rule, it still raises
    with pytest.raises(AssertionError):
        _reject("abar and d", 1, 0, positive=("abar",))


class _Rejected(Exception):
    """Raised by the stand-in for `_reject`: no valid call may reach it."""


def test_valid_calls_never_reach_reject(monkeypatch):
    # every module's binding of _reject, swapped for one that fails; the
    # report, at its defaults and at the sweep grid, makes only valid calls
    def fail(*args, **kwargs):
        raise _Rejected(args)

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("hkverify.")]
    patched = [m for m in modules if getattr(m, "_reject", None) is _reject]
    assert {m.__name__ for m in patched} >= {
        "hkverify.lattice",
        "hkverify.walls",
        "hkverify.fiber",
        "hkverify.abelian",
    }
    for module in patched:
        monkeypatch.setattr(module, "_reject", fail)
    run_report()
    run_report(SWEEP_GRID)
    with pytest.raises(_Rejected):  # the stand-in is the one the checks call
        hkverify.walls.ample_thresholds(0)
