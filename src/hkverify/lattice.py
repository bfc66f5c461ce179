"""Exact lattice primitives for the rank-2 surface models.

The package's one number contract lives here: coefficients go through
`_coef` (an int where integral, a Fraction otherwise, never a float), every
division through `_quotient`, every printed number through `_number_text`
(in full, however long), every literal is read within the interpreter's
int-to-string limit `digit_limit`, and every public form returns what that exact
arithmetic gives, an int on integral inputs and otherwise an int or a
Fraction. Poly, the exact polynomial type, follows the same contract, and
its evaluation `Poly.__call__` is the one input check of every polynomial
value in the package (the Chern numbers, `kummer.riemann_roch_from_square`).
The basic object is a Gram matrix; on top of that sits the
two-generator Neron-Severi model {omegabar, gamma} with gamma isotropic, the
ambient lattice for all divisibility and moduli-case bookkeeping; its
pairing is `kummer.mu_pair`, with `gram().pair` as the oracle.

The package's value classes are plain `__slots__` classes with one
hand-written `__init__`, not dataclasses: importing `dataclasses` and
decorating its classes cost about 30 ms of every cold process.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm


def _quotient(x, k: int | Fraction):
    """x / k exactly: Fraction(x, k) through `_coef` on an int or a Fraction
    x, since int / int is a float, so an integral quotient is an int; x / k
    on a Poly, whose coefficients divide this way."""
    return _coef(Fraction(x, k)) if isinstance(x, (int, Fraction)) else x / k


def _number_text(value: int | Fraction) -> str:
    """str(value) at any length, for printing. The int-to-string digit limit
    bounds the inputs, but an answer can have more digits than its input (a
    square has twice as many); Decimal writes an int without that limit."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_number_text(value.numerator)}/{_number_text(value.denominator)}"
    return str(Decimal(int(value)))


def digit_limit() -> int:
    """The interpreter's int-to-string digit limit, or its default 4300 where
    the limit is off (0) or the interpreter predates it."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _coef(value) -> int | Fraction:
    """A class coefficient: an int or an integral Fraction becomes an int,
    any other Fraction is kept, and anything else raises TypeError. Integral
    coefficients then pair in int arithmetic, with no gcd per operation."""
    if isinstance(value, int):
        return int(value)  # a bool becomes 0 or 1
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


class Poly:
    """Polynomial in one variable (printed as a) with exact coefficients,
    ints where integral (`_coef`), lowest degree first and trailing zeros
    trimmed, so the zero polynomial has no coefficients. A coefficient that is not an int or a
    Fraction, a float included, raises TypeError.

    Mixes with ints and Fractions on either side of +, - and *, divides by
    a scalar, compares by coefficients (Poly((3,)) == 3), and evaluates by
    calling: p(x).
    """

    __slots__ = ("coeffs", "_nums", "_den")

    def __init__(self, coeffs=()) -> None:
        coeffs = [_coef(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        # the coefficients as int numerators over their common denominator
        self._den = lcm(*(c.denominator for c in coeffs))
        self._nums = tuple(c.numerator * (self._den // c.denominator) for c in coeffs)

    def __call__(self, x):
        """The value at x. At an int or a Fraction p/q (through `_coef`, so a
        float raises TypeError), Horner's rule runs in ints on the numerators
        over the common denominator, homogeneously in p and q, and one
        `_quotient` at the end (none over the denominator 1) gives an int
        where the value is integral. At a Poly, Horner's rule gives the
        composition."""
        if isinstance(x, Poly):
            value = Poly()
            for c in reversed(self.coeffs):
                value = value * x + c
            return value
        x = _coef(x)
        num, den = x.numerator, x.denominator
        value, power = 0, 1
        for c in reversed(self._nums):
            power *= den
            value = value * num + c * power
        scale = self._den * power
        return value if scale == 1 else _quotient(value, scale)

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


#: The polynomial variable: the parameter a of the Chern numbers, or q(c1)
#: in `kummer.riemann_roch_from_square`.
SYMBOL_A = Poly((0, 1))


class GramLattice:
    """Rank-2 even lattice described by its integer Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, int], tuple[int, int]]) -> None:
        if len(gram) != 2 or any(len(row) != 2 for row in gram):
            raise ValueError("Gram matrix must be 2x2")
        if not all(isinstance(entry, int) for row in gram for entry in row):
            raise TypeError("Gram matrix entries must be integers")
        (a, b), (c, d) = gram
        if b != c:
            raise ValueError("Gram matrix must be symmetric")
        if a % 2 or d % 2:
            raise ValueError("an even lattice needs an even diagonal")
        self.gram = gram

    def pair(self, u, v) -> int | Fraction:
        if len(u) != 2 or len(v) != 2:
            raise ValueError("coefficient vectors must have length 2")
        total = 0
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                total += _coef(ui) * self.gram[i][j] * _coef(vj)
        return _coef(total)

    def square(self, u) -> int | Fraction:
        return self.pair(u, u)

    def discriminant(self) -> int:
        """Determinant a d - b c of the Gram matrix."""
        (a, b), (c, d) = self.gram
        return a * d - b * c


def nocamere_bound(d0: int, q_beta: int) -> Fraction:
    """Upper bound -2*d0/(1 + q_beta) for negative squares in a rank-2
    lattice of discriminant -d0^2 containing an isotropic class, where
    q_beta >= 0 is the square of the complementary basis vector."""
    if not (isinstance(d0, int) and isinstance(q_beta, int)):
        raise TypeError("d0 and q_beta must be integers")
    if d0 < 1:
        raise ValueError("d0 must be a positive integer")
    if q_beta < 0:
        raise ValueError("q_beta must be nonnegative")
    return _quotient(-2 * d0, 1 + q_beta)


class AbelianSurfaceModel:
    """Rank-2 model {omegabar, gamma} with omegabar^2 = self_omega,
    omegabar.gamma = mixed_d and gamma isotropic (discriminant -mixed_d^2).

    The same shape serves both sides of the degree-2 isogeny: self_omega is
    2*abar on the small side and 4*abar on the big one.
    """

    __slots__ = ("self_omega", "mixed_d")

    def __init__(self, self_omega: int, mixed_d: int) -> None:
        if not isinstance(self_omega, int) or not isinstance(mixed_d, int):
            raise TypeError("self_omega and mixed_d must be integers")
        if self_omega <= 0 or self_omega % 2:
            raise ValueError("omegabar^2 must be a positive even integer")
        if mixed_d <= 0:
            raise ValueError("mixed pairing d must be a positive integer")
        self.self_omega = self_omega
        self.mixed_d = mixed_d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.self_omega == other.self_omega and self.mixed_d == other.mixed_d

    def gram(self) -> GramLattice:
        return GramLattice(((self.self_omega, self.mixed_d), (self.mixed_d, 0)))

    def discriminant(self) -> int:
        return self.gram().discriminant()


def kummer_divisibility(p: int, q: int, x: int) -> int:
    """Divisibility of mu(p*omegabar + q*gamma) + x*delta in the rank-3
    degree-2 model: gcd of the surface content with 6x.

    The pairing against mu-classes reads off gcd(p, q) and the pairing
    against delta contributes 6x, so div = gcd(gcd(p, q), 6x).
    """
    if not all(isinstance(v, int) for v in (p, q, x)):
        raise TypeError("p, q and x must be integers")
    if p == 0 and q == 0 and x == 0:
        raise ValueError("the zero class has no divisibility")
    return gcd(gcd(p, q), 6 * x)


# moduli cases: index i with its congruence modulus for e = -6 mod m
_MODULI_MODULUS = {2: 8, 3: 18, 6: 72}


def classify_moduli_case(e: int, i: int) -> bool:
    """Whether the pair (e, i) lands in one of the four admissible numeric
    cases: i = 1 with e even, or i in {2, 3, 6} with e = -6 mod (8, 18, 72)."""
    if not (isinstance(e, int) and isinstance(i, int)):
        raise TypeError("e and i must be integers")
    if i not in (1, 2, 3, 6):
        raise ValueError("index i must be one of 1, 2, 3, 6")
    if e <= 0:
        raise ValueError("e must be a positive integer")
    if i == 1:
        return e % 2 == 0
    return (e + 6) % _MODULI_MODULUS[i] == 0


def theorem_hypothesis(e: int, i: int) -> int | None:
    """Strengthened congruences under which the existence statement applies:
    i = 2 with e = 16*abar - 6, or i = 6 with e = 144*abar - 6.

    Returns abar when accepted, None when rejected.
    """
    if not (isinstance(e, int) and isinstance(i, int)):
        raise TypeError("e and i must be integers")
    if i not in (2, 6):
        raise ValueError("the hypothesis covers only i = 2 and i = 6")
    if e <= 0:
        raise ValueError("e must be a positive integer")
    modulus = 16 if i == 2 else 144
    if (e + 6) % modulus:
        return None
    return (e + 6) // modulus
