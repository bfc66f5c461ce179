"""Chern numbers of the transferred rank-4 bundle as polynomials in the
polarization parameter a, the Euler-characteristic identities among them,
their agreement with the intersection calculus on X, and the one stated
value that disagrees with the recomputation."""

from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from hkverify.blowup import XTwoClass, ch1_bundle, ch2_pairing
from hkverify.chern import (
    SYMBOL_A,
    Poly,
    a_invariant,
    a_invariant_components,
    ch1_ch3,
    ch1_fourth,
    ch1_square_q,
    ch1sq_c2,
    ch1sq_ch2_derived,
    ch1sq_ch2_stated,
    ch2_squared,
    ch2_td2,
    ch4_integral,
    chi_bundle,
    chi_end,
    chi_end_decomposition,
    chi_end_traceless,
    gianni_decomposition,
    _ch2_c2,
)
from hkverify.cli import main
from hkverify.kummer import KummerTwoClass, c2_pair, fujiki_integral
from hkverify.lattice import AbelianSurfaceModel

small_a = st.integers(min_value=1, max_value=50)
# small rationals, zero often enough that one- and two-term polynomials occur
small_q = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-12, max_value=12, max_denominator=4)
)
small_poly = st.lists(small_q, max_size=3).map(Poly)


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(poly):
    a = sympy.symbols("a")
    return sympy.expand(sum(_rational(c) * a**k for k, c in enumerate(poly.coeffs)))


def _at(parts, a):
    """A tuple of Poly entries evaluated at a."""
    return tuple(p(a) for p in parts)


def test_values_at_a_equals_one():
    assert ch1_square_q(1) == 10
    assert ch1_fourth(1) == 900
    assert ch1sq_c2(1) == 540
    assert ch1sq_ch2_stated(1) == 117
    assert ch1sq_ch2_derived(1) == 45
    assert ch1_ch3(1) == Fraction(-15, 2)
    assert ch2_squared(1) == 9
    assert ch4_integral(1) == Fraction(-3, 4)
    assert chi_bundle(1) == 9
    assert chi_end(1) == 3
    assert chi_end_traceless(1) == 0


def test_gianni_decomposition_at_one():
    parts = _at(gianni_decomposition, 1)
    assert parts == (-45, Fraction(-27, 2), 36, -9, 24)
    assert sum(parts) == ch1_ch3(1)


@given(small_a)
def test_gianni_decomposition_sums_to_ch1_ch3(a):
    assert sum(_at(gianni_decomposition, a)) == ch1_ch3(a)


def test_chi_values():
    assert chi_bundle(0) == 3
    assert chi_bundle(1) == 9
    assert chi_bundle(2) == 18


def _x_path(a, d):
    """int h^4, int h^2.c2 and int ch2.h^2 computed by the kummer and blowup
    calculus, for h = ch1_bundle(line) and the line class pullback of
    mu(omegabar) on the halved model (2a, d); Polys in a when a is
    SYMBOL_A."""
    line = XTwoClass(KummerTwoClass(AbelianSurfaceModel(2 * a, d), 1, 0, 0), 0)
    h = ch1_bundle(line)
    return (fujiki_integral(h, h, h, h), c2_pair(h, h), ch2_pairing(line, h, h))


X_PATH_DS = (1, 5, 7)


@pytest.mark.parametrize("d", X_PATH_DS)
def test_x_path_on_the_symbolic_model_is_the_chern_polys(d):
    # one identity of Polys in a per d: d never enters
    assert _x_path(SYMBOL_A, d) == (ch1_fourth, ch1sq_c2, ch1sq_ch2_derived)


def test_symbolic_x_path_evaluates_to_the_numeric_one():
    for d in X_PATH_DS:
        symbolic = _x_path(SYMBOL_A, d)
        for a in range(1, 11):
            assert _at(symbolic, a) == _x_path(a, d), (a, d)


@given(small_a)
def test_stated_ch1sq_ch2_disagrees_with_derivation(a):
    # the recorded value and the recomputation differ for every a >= 1
    assert ch1sq_ch2_stated(a) != ch1sq_ch2_derived(a)
    assert ch1sq_ch2_stated(a) - ch1sq_ch2_derived(a) == 288 * a * a - 216 * a


@given(small_a)
def test_hirzebruch_combination_is_constant(a):
    combo = 8 * ch4_integral(a) - 2 * ch1_ch3(a) + ch2_squared(a)
    assert combo == 18


@given(small_a)
def test_chi_end_is_constant_three(a):
    assert chi_end(a) == 3
    assert chi_end_traceless(a) == 0


@given(small_a)
def test_chi_end_decomposition(a):
    parts = _at(chi_end_decomposition, a)
    assert parts == (48, -63, 18)
    assert sum(parts) == chi_end(a)


def test_ch2_td2_and_c2_values():
    assert ch2_td2(1) == Fraction(-9, 4)
    # int ch2 . c2 = 108 a - 135, the middle chi(End) summand's input
    assert _ch2_c2 == 108 * SYMBOL_A - 135
    assert _ch2_c2(1) == -27


def test_a_invariant():
    assert a_invariant() == 72
    assert a_invariant_components() == (16, 54, 12)
    # components multiply out: rank^2 * coeff / 12
    r2, coeff, denom = a_invariant_components()
    assert Fraction(r2 * coeff, denom) == a_invariant()


def test_table_compute(capsys):
    # the whole `chern --a 1` table, row for row
    assert main(["chern", "--a", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a = 1",
        "ch1^4 = 900",
        "ch1^2.ch2 (stated) = 117",
        "ch1^2.ch2 (derived) = 45",
        "ch1.ch3 = -15/2",
        "ch2^2 = 9",
        "ch4 = -3/4",
        "chi = 9",
        "chi(End) = 3",
        "chi(End0) = 0",
    ]


def test_polynomials_in_a_symbol():
    # the entries are the polynomials sympy expands their derivations to
    a = sympy.symbols("a")
    assert _to_sympy(chi_end) == 3
    assert _to_sympy(ch1_fourth) == sympy.expand(9 * (16 * a - 6) ** 2)
    assert str(ch1_fourth) == str(sympy.expand(2304 * a**2 - 1728 * a + 324))


@given(small_poly, st.integers(min_value=-20, max_value=20), small_q, small_poly)
def test_poly_call_matches_sympy(p, n, x, q):
    a = sympy.symbols("a")
    expr = _to_sympy(p)
    assert type(p(n)) in (int, Fraction)
    assert _rational(p(n)) == expr.subs(a, n)
    assert _rational(p(x)) == expr.subs(a, _rational(x))
    # a Poly argument composes
    assert str(p(q)) == str(sympy.expand(expr.subs(a, _to_sympy(q))))


def _horner_in_fractions(poly, x):
    # the value by Horner's rule in plain Fraction arithmetic
    value = Fraction(0)
    for c in reversed(poly.coeffs):
        value = value * x + c
    return value


@pytest.mark.parametrize(
    "poly",
    [Poly(()), Poly((7,)), Poly((Fraction(-5, 3),)), Poly((Fraction(1, 2), -3, Fraction(7, 4)))]
    + [ch4_integral, ch1_ch3, chi_bundle, ch1_fourth, ch2_td2],
)
@pytest.mark.parametrize(
    "x", [0, 1, -1, -7, -250, 10**30, Fraction(1, 3), Fraction(-7, 4), Fraction(22, -6)]
)
def test_poly_call_matches_fraction_horner(poly, x):
    value = poly(x)
    expected = _horner_in_fractions(poly, x)
    assert value == expected
    # an int exactly where the value is integral
    assert type(value) is (int if expected.denominator == 1 else Fraction)
    with pytest.raises(TypeError):
        poly(float(x))


@pytest.mark.parametrize("x", [1.5, 2.0, Decimal("1.5"), 1j, "1"])
@given(small_poly)
def test_poly_call_rejects_inexact_arguments(x, p):
    with pytest.raises(TypeError):
        p(x)


@given(small_poly)
def test_poly_prints_like_sympy(poly):
    assert str(poly) == str(_to_sympy(poly))


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((), "0"),
        ((0, 0, 0), "0"),
        ((27, -72), "27 - 72*a"),
        ((1, 0, -1), "1 - a**2"),
        ((Fraction(1, 2), 0, Fraction(-3, 2)), "1/2 - 3*a**2/2"),
        ((1, -1), "1 - a"),
        ((-1, 1), "a - 1"),
        ((-1, -1), "-a - 1"),
        ((1, 1), "a + 1"),
        ((1, 1, -1), "-a**2 + a + 1"),
        ((0, Fraction(1, 2), Fraction(-3, 2)), "-3*a**2/2 + a/2"),
        ((Fraction(9, 4), Fraction(-9, 2), Fraction(3, 2)), "3*a**2/2 - 9*a/2 + 9/4"),
        ((0, Fraction(-1, 2)), "-a/2"),
        ((Fraction(-27, 2),), "-27/2"),
    ],
)
def test_poly_printer_cases(coeffs, text):
    poly = Poly(coeffs)
    assert str(poly) == text == str(_to_sympy(poly))


@given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
def test_poly_arithmetic_matches_sympy(p, q, k):
    for ours, theirs in (
        (p + q, _to_sympy(p) + _to_sympy(q)),
        (p - q, _to_sympy(p) - _to_sympy(q)),
        (k - p, k - _to_sympy(p)),
        (p * q, _to_sympy(p) * _to_sympy(q)),
        (k * p, k * _to_sympy(p)),
        (-p / 3, -_to_sympy(p) / 3),
    ):
        assert str(ours) == str(sympy.expand(theirs))


def test_poly_compares_with_scalars():
    a = SYMBOL_A
    assert Poly(()) == 0 == a - a
    assert Poly((3,)) == 3 and 3 == Poly((3,))
    assert Poly((Fraction(1, 2),)) == Fraction(1, 2)
    assert a != 0 and a * a != a
    assert Poly((1, 2, 0)) == Poly((1, 2))


@pytest.mark.parametrize("coeffs", [(0.5, 1), (1, 0.0), (Fraction(1, 2), "1")])
def test_poly_rejects_inexact_coefficients(coeffs):
    with pytest.raises(TypeError):
        Poly(coeffs)
