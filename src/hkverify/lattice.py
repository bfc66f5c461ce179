"""Exact lattice primitives for the rank-2 surface models.

The package's one number contract lives here: coefficients go through
`_coef` (an int where integral, a Fraction otherwise, never a float), every
division through `_quotient` (an exact int quotient of two ints directly,
every other one through `_coef`), every printed number through `_number_text`
(in full, however long), every literal is read within the interpreter's
int-to-string limit `digit_limit`, and every public form returns what that exact
arithmetic gives, an int on integral inputs and otherwise an int or a
Fraction. Poly, the exact polynomial type, follows the same contract; its
one Horner loop `Poly.__call__` is the one input check of every polynomial
value in the package (the Chern numbers, `kummer.riemann_roch_from_square`).
The one argument rule: int arguments are checked for type, then each for its
own range (positive, odd d, 1 <= n <= 4, ...), then for the rules that tie
them (coprime s0 and c0, m*d > 1). `_reject` raises every TypeError for a
non-int and every "must be a positive integer"; it runs only once an inline
check has failed, so a valid call makes no extra function call.
The basic object is a Gram matrix; on top of that sits the
two-generator Neron-Severi model {omegabar, gamma} with gamma isotropic, the
ambient lattice for all divisibility and moduli-case bookkeeping; its
pairing is `kummer.mu_pair`, with `gram().pair` as the oracle. There is one
model object per pair (omegabar^2, d), so every check that two classes live
on the same model is `is`; the constructor looks up a pair of exact ints
first and validates any other arguments before the lookup, so a float that
hashes like an int is still refused. omegabar^2 may also be the Poly k*a
(k a positive even int): on that symbolic model the exact kernels return
Polys in a, so an identity in a is checked once, as an identity of Polys.

The package's value classes are plain `__slots__` classes with one
hand-written constructor, not dataclasses: importing `dataclasses` and
decorating its classes cost about 30 ms of every cold process.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from math import gcd


def _quotient(x, k: int | Fraction):
    """x / k exactly, since int / int is a float: x // k when x and k are
    exact ints (not bools) and k divides x, x / k on a Poly, whose
    coefficients divide this way, else Fraction(x, k) through `_coef`, so an
    integral quotient is an int either way and a float raises TypeError."""
    if x.__class__ is int and k.__class__ is int and k and not x % k:
        return x // k
    return x / k if isinstance(x, Poly) else _coef(Fraction(x, k))


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


def _reject(names: str, *values, positive: tuple[str, ...] | None = None):
    """The error of a failed int check on `values`, named by `names` ("abar,
    d and m"): TypeError if one is not an int (a bool is), else ValueError
    for the first below 1 of those named in `positive` (default: all)."""
    if not all(isinstance(v, int) for v in values):
        raise TypeError(f"{names} must be {'integers' if len(values) > 1 else 'an integer'}")
    for name, value in zip(names.replace(" and ", ", ").split(", "), values):
        if value < 1 and (positive is None or name in positive):
            raise ValueError(f"{name} must be a positive integer")
    raise AssertionError(f"{names}: the failed check and _reject disagree")


class Poly:
    """Polynomial in one variable (printed as a) with exact coefficients,
    ints where integral (`_coef`), lowest degree first and trailing zeros
    trimmed, so the zero polynomial has no coefficients. A coefficient that
    is not an int or a Fraction, a float included, raises TypeError.

    Mixes with ints and Fractions on either side of +, - and *, divides by
    a scalar, compares by coefficients (Poly((3,)) == 3), and evaluates by
    calling: p(x).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        coeffs = [_coef(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __call__(self, x):
        """The value at x by Horner's rule: at an int or a Fraction (through
        `_coef`, so a float raises TypeError) an int where the value is
        integral, at a Poly the composition."""
        composing = isinstance(x, Poly)
        value, x = (Poly(), x) if composing else (0, _coef(x))
        for c in reversed(self.coeffs):
            value = value * x + c
        return value if composing else _coef(value)

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
        if other.__class__ is int:
            return Poly(tuple(c * other for c in self.coeffs))
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
            _reject("Gram matrix entries", *gram[0], *gram[1])
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
    if not (isinstance(d0, int) and isinstance(q_beta, int) and d0 > 0):
        _reject("d0 and q_beta", d0, q_beta, positive=("d0",))
    if q_beta < 0:
        raise ValueError("q_beta must be nonnegative")
    return _quotient(-2 * d0, 1 + q_beta)


#: The models built so far, one per (self_omega, mixed_d); k*a is keyed (0, k).
_MODELS: dict[tuple[int | tuple[int, int], int], "AbelianSurfaceModel"] = {}


class AbelianSurfaceModel:
    """Rank-2 model {omegabar, gamma} with omegabar^2 = self_omega,
    omegabar.gamma = mixed_d and gamma isotropic (discriminant -mixed_d^2).

    The same shape serves both sides of the degree-2 isogeny: self_omega is
    2*abar on the small side and 4*abar on the big one. self_omega may also
    be the Poly k*a (k a positive even int), keyed (self_omega.coeffs,
    mixed_d) apart from the int model k; the kernels on it return Polys in a.

    There is one model per pair of numbers: the constructor returns the
    model already built with them, so two models are the same model exactly
    when they are the same object. A pair of exact ints (`__class__ is
    int`, so no bool) is looked up first: every stored model was validated
    when it was stored. Any other arguments, and a pair not yet stored, are
    checked before the lookup, since 4.0 hashes like 4 and would otherwise
    find the int model.
    A new model is stored with setdefault, so two threads that build one
    pair get one model, and `__reduce__` sends a copy or an unpickled model
    through the constructor, so it is the same object again.
    """

    __slots__ = ("self_omega", "mixed_d")

    def __new__(cls, self_omega: int | Poly, mixed_d: int) -> "AbelianSurfaceModel":
        if self_omega.__class__ is int and mixed_d.__class__ is int:
            model = _MODELS.get((self_omega, mixed_d))
            if model is not None:
                return model
        # k*a is checked as its k and stored under its coefficients (0, k)
        symbolic = isinstance(self_omega, Poly) and self_omega == self_omega(1) * SYMBOL_A
        k = self_omega(1) if symbolic else self_omega
        if not isinstance(k, int) or not isinstance(mixed_d, int):
            _reject("self_omega and mixed_d", k, mixed_d)
        if k <= 0 or k % 2:
            raise ValueError("self_omega must be a positive even integer")
        if mixed_d <= 0:
            _reject("mixed_d", mixed_d)
        key = (self_omega.coeffs if symbolic else int(k), int(mixed_d))  # a bool becomes 1
        if key not in _MODELS:
            model = super().__new__(cls)
            model.self_omega, model.mixed_d = self_omega if symbolic else key[0], key[1]
            _MODELS.setdefault(key, model)
        return _MODELS[key]

    def __reduce__(self):
        return (AbelianSurfaceModel, (self.self_omega, self.mixed_d))

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
        _reject("p, q and x", p, q, x)
    if p == 0 and q == 0 and x == 0:
        raise ValueError("the zero class has no divisibility")
    return gcd(gcd(p, q), 6 * x)


# moduli cases: index i with its congruence modulus for e = -6 mod m
_MODULI_MODULUS = {2: 8, 3: 18, 6: 72}


def _check_case(e: int, i: int, indices: tuple[int, ...], message: str) -> None:
    """The common domain of the moduli-case tests: a positive e, then an
    index i among `indices`, else ValueError(message); e is checked first,
    as it comes first."""
    if not (isinstance(e, int) and isinstance(i, int)):
        _reject("e and i", e, i)
    if e <= 0:
        _reject("e", e)
    if i not in indices:
        raise ValueError(message)


def classify_moduli_case(e: int, i: int) -> bool:
    """Whether the pair (e, i) lands in one of the four admissible numeric
    cases: i = 1 with e even, or i in {2, 3, 6} with e = -6 mod (8, 18, 72)."""
    _check_case(e, i, (1, 2, 3, 6), "index i must be one of 1, 2, 3, 6")
    if i == 1:
        return e % 2 == 0
    return (e + 6) % _MODULI_MODULUS[i] == 0


def theorem_hypothesis(e: int, i: int) -> int | None:
    """Strengthened congruences under which the existence statement applies:
    i = 2 with e = 16*abar - 6, or i = 6 with e = 144*abar - 6.

    Returns abar when accepted, None when rejected.
    """
    _check_case(e, i, (2, 6), "the hypothesis covers only i = 2 and i = 6")
    modulus = 16 if i == 2 else 144
    if (e + 6) % modulus:
        return None
    return (e + 6) // modulus
