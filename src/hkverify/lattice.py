"""Exact lattice primitives for the rank-2 surface models.

The package's one number contract lives here: coefficients go through
`_coef` (an int where integral, a Fraction otherwise, never a float), every
division through `_quotient` (an exact int quotient of two ints directly,
every other one through `_coef`), every printed number through `_number_text`
(in full, however long), every literal is read within the interpreter's
int-to-string limit `digit_limit`, and every public form returns what that exact
arithmetic gives, an int on integral inputs and otherwise an int or a
Fraction. Poly, the one polynomial type (sparse, in a and more variables),
follows it too; `_coef` keeps a Poly as a class coefficient, so the kernels
run on symbolic classes, and `Poly.__call__`, Horner's rule in a, is the one
input check of the Chern numbers and `kummer.riemann_roch_from_square`.
The one argument rule: int arguments are checked for type, then each for its
own range (positive, odd d, 1 <= n <= 4, ...), then for the rules that tie
them (coprime s0 and c0, m*d > 1). `_reject` raises every TypeError for a
non-int and every "must be a positive integer"; it runs only once an inline
check has failed, so a valid call makes no extra function call.
The basic object is a Gram matrix; on top of that sits the
two-generator Neron-Severi model {omegabar, gamma} with gamma isotropic, the
ambient lattice for all divisibility and moduli-case bookkeeping; its
pairing is `kummer.mu_pair`, with `gram().pair` as the oracle on int models
only (a GramLattice takes int entries, so the symbolic model has no
`gram()` and no `discriminant()`). There is one
model object per pair (omegabar^2, d), so every check that two classes live
on the same model is `is`; the constructor looks up a pair of exact ints
first and validates any other arguments before the lookup, so a float that
hashes like an int is still refused. omegabar^2 may also be the Poly k*a
(k a positive even int); the kernels then return Polys in a.

The package's value classes are plain `__slots__` classes with one
hand-written constructor, not dataclasses: importing `dataclasses` and
decorating its classes cost about 30 ms of every cold process.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
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


def _coef(value) -> "int | Fraction | Poly":
    """A class coefficient: an int or an integral Fraction becomes an int,
    any other Fraction is kept, a Poly is kept unless it is a constant, which
    becomes its number, and anything else raises TypeError. Integral
    coefficients then pair in int arithmetic, with no gcd per operation."""
    if isinstance(value, int):
        return value if value.__class__ is int else int(value)  # a bool becomes 0 or 1
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, Poly):
        return value if value.terms.keys() - {0} else value(0)
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


#: Bits per exponent in a packed monomial, variable i from bit _BITS*i: the
#: product of two monomials is the sum of their ints while exponents < 2**_BITS.
_BITS = 32


def _poly(terms: dict) -> "Poly":
    """The Poly with these terms, whose coefficients are already nonzero and
    ints where integral (`_coef`): each operation keeps them so as it goes."""
    p = object.__new__(Poly)
    p.terms = terms
    return p


def _lift(value) -> "Poly | None":
    """A Poly for an int, a Fraction or a Poly; None for anything else."""
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return value if isinstance(value, Poly) else None


class Poly:
    """Sparse polynomial in several variables with exact coefficients, ints
    where integral (`_coef`): `terms` maps each packed monomial to its
    nonzero coefficient. Poly(coeffs, var) is sum coeffs[k] * v**k in
    variable `var` (0 is a); any coefficient but an int or a Fraction (a
    float, a Poly) raises TypeError.

    Mixes with ints and Fractions on either side of +, - and *, divides by
    a scalar, compares by terms (Poly((3,)) == 3), is false exactly when
    zero, and, in a alone, evaluates by calling: p(x).
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs=(), var=0) -> None:
        coeffs = [_coef(c) for c in coeffs]
        if Poly in map(type, coeffs):
            raise TypeError("a coefficient must be an integer or Fraction")
        self.terms = {k << _BITS * var: c for k, c in enumerate(coeffs) if c}

    def __call__(self, x):
        """The value at a = x by Horner's rule: at an int or a Fraction (via
        `_coef`, so a float raises TypeError) an int where the value is
        integral, at a Poly the composition; ValueError in another variable."""
        degree = max(self.terms, default=0)
        if degree >> _BITS:
            raise ValueError("not a polynomial in a alone")
        value, x = 0, _coef(x)
        for k in range(degree, -1, -1):
            value = value * x + self.terms.get(k, 0)
        return _coef(value)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        terms = self.terms.copy()
        for m, c in other.terms.items():
            c += terms.get(m, 0)
            if c:
                terms[m] = _coef(c)
            else:
                del terms[m]
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is int:  # a nonzero int keeps every coefficient nonzero
            items = self.terms.items() if other else ()
            return _poly(
                {m: c * other if c.__class__ is int else _coef(c * other) for m, c in items}
            )
        other = _lift(other)
        if other is None:
            return NotImplemented
        terms, pairs = {}, other.terms.items()
        for m, c in self.terms.items():
            for n, d in pairs:
                n += m
                d = c * d + terms.pop(n, 0)
                if d:
                    terms[n] = d if d.__class__ is int else _coef(d)
        return _poly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _poly({m: _quotient(c, other) for m, c in self.terms.items()})

    def __eq__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __str__(self) -> str:
        """The string sympy prints for the expanded polynomial: terms by
        descending degree, except that a positive constant plus one negative
        monomial prints the constant first (27 - 72*a). Variable 0 prints as
        a, variable i > 0 as vi."""
        terms = sorted(self.terms.items(), reverse=True)
        if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
            terms.reverse()
        text = ""
        for m, c in terms:
            factors = [
                (f"v{i}" if i else "a") + (f"**{e}" if e > 1 else "")
                for i in range(m.bit_length() // _BITS + 1)
                if (e := m >> _BITS * i & (1 << _BITS) - 1)
            ]
            if abs(c.numerator) != 1 or not factors:
                factors.insert(0, str(abs(c.numerator)))
            text += (" - " if c < 0 else " + ") + "*".join(factors)
            if c.denominator != 1:
                text += f"/{c.denominator}"
        return "-" + text[3:] if text.startswith(" - ") else text[3:] or "0"


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
    be the Poly k*a (k a positive even int), keyed ((0, k), mixed_d) apart
    from the int model k; the kernels on it return Polys in a.

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
        # k*a is checked as its k and stored under the key (0, k)
        symbolic = isinstance(self_omega, Poly) and self_omega.terms.keys() == {1}
        k = self_omega.terms[1] if symbolic else self_omega
        if not isinstance(k, int) or not isinstance(mixed_d, int):
            _reject("self_omega and mixed_d", k, mixed_d)
        if k <= 0 or k % 2:
            raise ValueError("self_omega must be a positive even integer")
        if mixed_d <= 0:
            _reject("mixed_d", mixed_d)
        key = ((0, k) if symbolic else int(k), int(mixed_d))  # a bool becomes 1
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
