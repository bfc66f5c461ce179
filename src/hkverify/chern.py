"""Chern numbers and Euler characteristics of the transferred rank-4
bundle, as exact polynomials in the polarization parameter a (the halved
model has omega^2 = 2a, so q(ch1) = 16a - 6).

Every function accepts an int, a Fraction or a Poly and computes with it
exactly; a float raises TypeError in the leaf forms (`@_exact_arg`) that
every function of a reaches. Ints stay ints: a closed form with fractional
coefficients is one numerator over one denominator, and every division is
exact (`_quotient`), so an int input gives an int or one Fraction, never a
float. Poly is the exact polynomial type the report evaluates them on. The
stated closed form for int ch1^2 ch2 disagrees with the derived one, and
both are exposed so the report can flag exactly that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .kummer import C2_PAIR_COEFF, C2_SQUARE_VALUE, riemann_roch_from_square
from .lattice import _coef, _exact_arg, _quotient


@_exact_arg
def ch1_square_q(a):
    """q(ch1) = 16a - 6."""
    return 16 * a - 6


def ch1_fourth(a):
    """int ch1^4 = 9 * q(ch1)^2 = 2304 a^2 - 1728 a + 324."""
    q = ch1_square_q(a)
    return 9 * q * q


def ch1sq_c2(a):
    """int ch1^2 . c2 = C2_PAIR_COEFF * q(ch1) = 54 q(ch1)."""
    return C2_PAIR_COEFF * ch1_square_q(a)


@_exact_arg
def ch1sq_ch2_stated(a):
    """int ch1^2 ch2 as stated: 576 a^2 - 540 a + 81."""
    return 576 * a * a - 540 * a + 81


def ch1sq_ch2_derived(a):
    """int ch1^2 ch2 via ch2 = (ch1^2 - c2)/8: (int ch1^4 - 54 q(ch1)) / 8
    = 288 a^2 - 324 a + 81."""
    return _quotient(ch1_fourth(a) - ch1sq_c2(a), 8)


@_exact_arg
def _gianni_doubled(a):
    """Twice the five summands of int ch1 ch3, all integral on an int a."""
    return (54 - 144 * a, -27 + 0 * a, 72 * a, -18 * a, 48 * a * a)


def gianni_decomposition(a):
    """The five summands of int ch1 ch3: the curvature-weighted piece and
    the four Todd-expansion integrals, in that order."""
    return tuple(_quotient(part, 2) for part in _gianni_doubled(a))


def ch1_ch3(a):
    """int ch1 ch3 = 24 a^2 - 45 a + 27/2, the sum of the five summands."""
    return _quotient(sum(_gianni_doubled(a)), 2)


@_exact_arg
def ch2_squared(a):
    """int ch2^2 = 36 a^2 - 54 a + 27."""
    return 36 * a * a - 54 * a + 27


def _ch2_squared_derived_num(a):
    return ch1_fourth(a) - 2 * ch1sq_c2(a) + C2_SQUARE_VALUE


def ch2_squared_derived(a):
    """int ch2^2 via ch2 = (ch1^2 - c2)/8:
    (int ch1^4 - 2 * 54 q(ch1) + int c2^2) / 64, with int c2^2 = 756."""
    return _quotient(_ch2_squared_derived_num(a), 64)


@_exact_arg
def ch2_td2(a):
    """int ch2 . td2 = 9a - 45/4 = (36a - 45)/4."""
    return _quotient(36 * a - 45, 4)


@_exact_arg
def _ch4_num(a):
    return 6 * a * a - 18 * a + 9


def ch4_integral(a):
    """int ch4 = (3/2) a^2 - (9/2) a + 9/4 = (6a^2 - 18a + 9)/4."""
    return _quotient(_ch4_num(a), 4)


def ch4_via_chi(a):
    """int ch4 recovered from chi = 12 + int ch2 td2 + int ch4."""
    return chi_bundle(a) - 12 - ch2_td2(a)


@_exact_arg
def chi_bundle(a):
    """chi of the rank-4 bundle: (3/2) a^2 + (9/2) a + 3 = (3a^2 + 9a + 6)/2."""
    return _quotient(3 * a * a + 9 * a + 6, 2)


def chi_bundle_rr(a):
    """Same chi through the line-bundle count on the halved model, where
    q(c1) = 2a."""
    return riemann_roch_from_square(2 * a)


def chi_bundle_hrr(a):
    """Same chi through rank * chi(O) + int ch2 td2 + int ch4."""
    return 12 + ch2_td2(a) + ch4_integral(a)


def _ch2_c2_num(a):
    """8 int ch2 . c2 via ch2 = (ch1^2 - c2)/8: 54 q(ch1) - int c2^2."""
    return ch1sq_c2(a) - C2_SQUARE_VALUE


def _chi_end_summand_nums(a):
    """Numerators of the three chi(End) summands, over 1, 12 and 64. With
    int ch4 = n4/4 and int ch1 ch3 = n13/2, the middle one is
    8 int ch2 c2 - int ch1^2 c2 and the last is 64 (2 n4 - n13) plus the
    numerator of the derived int ch2^2."""
    first = 48 + 0 * a
    middle = _ch2_c2_num(a) - ch1sq_c2(a)
    last = 64 * (2 * _ch4_num(a) - sum(_gianni_doubled(a))) + _ch2_squared_derived_num(a)
    return (first, middle, last)


def chi_end_decomposition(a):
    """chi(End) = rank^2 chi(O) + (1/12) int (8 ch2 - ch1^2) c2
    + int (8 ch4 - 2 ch1 ch3 + ch2^2), using derived entries only.
    Returns the three summands (48, -63, 18)."""
    first, middle, last = _chi_end_summand_nums(a)
    return (first, _quotient(middle, 12), _quotient(last, 64))


def _chi_end_num(a):
    """chi(End) over the common denominator 192 of its summands."""
    first, middle, last = _chi_end_summand_nums(a)
    return 192 * first + 16 * middle + 3 * last


def chi_end(a):
    return _quotient(_chi_end_num(a), 192)


def chi_end_traceless(a):
    """chi of the traceless endomorphisms: chi(End) - chi(O) = 0."""
    return _quotient(_chi_end_num(a) - 3 * 192, 192)


def a_invariant() -> int | Fraction:
    """The invariant rank^2 * d / (4 * chi(O)) controlling deformation
    counts, with d = C2_PAIR_COEFF the modularity coefficient; 16 * 54 / 12
    = 72 for the rank-4 bundle."""
    rank_sq, d, denom = a_invariant_components()
    return _quotient(rank_sq * d, denom)


def a_invariant_components() -> tuple[int, int, int]:
    return (16, C2_PAIR_COEFF, 12)


@dataclass(frozen=True, eq=False)
class Poly:
    """Polynomial in a with exact coefficients, ints where integral
    (`_coef`), lowest degree first and trailing zeros trimmed, so the zero
    polynomial has no coefficients. A coefficient that is not an int or a
    Fraction, a float included, raises TypeError.

    Mixes with ints and Fractions on either side of +, - and *, divides by
    a scalar, and compares by coefficients (Poly((3,)) == 3).
    """

    coeffs: tuple[int | Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = [_coef(c) for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Poly(tuple(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Poly(tuple(_quotient(c, other) for c in self.coeffs))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        """The string sympy prints for the expanded polynomial: terms by
        descending degree, except that a positive constant plus one negative
        monomial prints the constant first (27 - 72*a)."""
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c][::-1]
        if not terms:
            return "0"
        if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
            terms.reverse()
        text = "".join((" - " if c < 0 else " + ") + self._term(k, abs(c)) for k, c in terms)
        return text[3:] if text.startswith(" + ") else "-" + text[3:]

    @staticmethod
    def _term(degree: int, coeff: int | Fraction) -> str:
        """sympy's string for coeff * a**degree with coeff > 0."""
        if degree == 0:
            return str(coeff)
        text = "a" if degree == 1 else f"a**{degree}"
        if coeff.numerator != 1:
            text = f"{coeff.numerator}*{text}"
        if coeff.denominator != 1:
            text = f"{text}/{coeff.denominator}"
        return text

    @staticmethod
    def _lift(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly((value,))
        return None


SYMBOL_A = Poly((0, 1))


def polynomial_identities() -> dict[str, bool]:
    """The identities in a that the numbers must satisfy, checked as exact
    polynomial identities (not sampled)."""
    a = SYMBOL_A
    return {
        "chi-end-constant-3": chi_end(a) - 3 == 0,
        "chi-end-traceless-0": chi_end_traceless(a) == 0,
        "hirzebruch-combination-18": (
            8 * ch4_integral(a) - 2 * ch1_ch3(a) + ch2_squared_derived(a) - 18 == 0
        ),
        "ch2-squared-paths-agree": ch2_squared(a) - ch2_squared_derived(a) == 0,
        "chi-paths-agree": chi_bundle(a) - chi_bundle_rr(a) == 0
        and chi_bundle(a) - chi_bundle_hrr(a) == 0,
        "ch4-paths-agree": ch4_integral(a) - ch4_via_chi(a) == 0,
        "ch1ch3-decomposition-sums": (
            ch1_ch3(a) - (24 * a * a - 45 * a + Fraction(27, 2)) == 0
        ),
        "ch1sq-ch2-statement-differs": ch1sq_ch2_stated(a) - ch1sq_ch2_derived(a) != 0,
    }
