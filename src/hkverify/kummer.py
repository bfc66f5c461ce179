"""Degree-2 and degree-4 intersection theory on a generalized Kummer
fourfold attached to a rank-2 surface model.

A degree-2 class is one KummerTwoClass(model, p, q, x), the class
mu(z) + x*delta with z = p*omegabar + q*gamma. The quadratic form is
q(mu(z) + x*delta) = z.z - 6x^2, with z.z the surface pairing `mu_pair`, and
quadruple products integrate through the quartic form
3 * (q12*q34 + q13*q24 + q14*q23). A degree-4 class paired with two degree-2
classes is a plain symmetric bilinear function of KummerTwoClass pairs, such
as `c2_pair`; `modularity_coefficient` finds the rational multiple of q that
such a function is, if any.

Class coefficients are ints where they are integral and Fractions
otherwise (`lattice._coef`), and every division is `lattice._quotient`: each
public form returns what its exact arithmetic gives, an int on integral
classes and otherwise an int or a Fraction, never a float. The line-bundle
count `riemann_roch_from_square` is a `lattice.Poly` in q(c1), evaluated by
calling it, so `Poly.__call__` is its input check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .lattice import SYMBOL_A, AbelianSurfaceModel, _coef, _number_text, _quotient

#: q(delta) on every generalized Kummer fourfold in this family.
DELTA_SQUARE = -6

#: int c2 . alpha . beta = 54 * q(alpha, beta).
C2_PAIR_COEFF = 54

#: int c2^2.
C2_SQUARE_VALUE = 756

#: int c4, the Euler number of a generalized Kummer fourfold.
EULER_NUMBER = 108


class KummerTwoClass:
    """Degree-2 class mu(p*omegabar + q*gamma) + x*delta on the Kummer
    fourfold of `model`; p, q and x are ints where integral (`_coef`)."""

    __slots__ = ("model", "p", "q", "x")

    def __init__(self, model: AbelianSurfaceModel, p, q, x) -> None:
        self.model = model
        self.p = _coef(p)
        self.q = _coef(q)
        self.x = _coef(x)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.model, self.p, self.q, self.x) == (other.model, other.p, other.q, other.x)

    def coeffs(self) -> tuple[int | Fraction, int | Fraction, int | Fraction]:
        return (self.p, self.q, self.x)

    def __add__(self, other: "KummerTwoClass") -> "KummerTwoClass":
        if self.model is not other.model:
            raise ValueError("classes live in different surface models")
        return KummerTwoClass(self.model, self.p + other.p, self.q + other.q, self.x + other.x)

    def __neg__(self) -> "KummerTwoClass":
        return KummerTwoClass(self.model, -self.p, -self.q, -self.x)

    def __sub__(self, other: "KummerTwoClass") -> "KummerTwoClass":
        return self + (-other)

    def scale(self, k) -> "KummerTwoClass":
        k = _coef(k)
        return KummerTwoClass(self.model, k * self.p, k * self.q, k * self.x)


def mu_pair(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
    """The surface pairing of the mu-parts of a and b,
    self_omega*p*p' + mixed_d*(p*q' + q*p'), computed directly;
    model.gram().pair is its oracle. Both classes must live on the same
    model object, of which there is one per pair of numbers."""
    m = a.model
    if m is not b.model:
        raise ValueError("classes live in different surface models")
    return m.self_omega * a.p * b.p + m.mixed_d * (a.p * b.q + a.q * b.p)


def basis(model: AbelianSurfaceModel) -> tuple[KummerTwoClass, ...]:
    """The degree-2 model basis (mu(omegabar), mu(gamma), delta)."""
    return (
        KummerTwoClass(model, 1, 0, 0),
        KummerTwoClass(model, 0, 1, 0),
        KummerTwoClass(model, 0, 0, 1),
    )


def bbf(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
    """The degree-2 quadratic form, polarized: mu_pair(a, b) - 6 * x_a * x_b."""
    return mu_pair(a, b) + DELTA_SQUARE * a.x * b.x


def fujiki_integral(
    b1: KummerTwoClass, b2: KummerTwoClass, b3: KummerTwoClass, b4: KummerTwoClass
) -> int | Fraction:
    """Integral of a product of four degree-2 classes:
    3 * sum of q-products over the three perfect matchings of {1,2,3,4}.
    It is also the k = 0 term of blowup.x_quartic."""
    return 3 * (
        bbf(b1, b2) * bbf(b3, b4) + bbf(b1, b3) * bbf(b2, b4) + bbf(b1, b4) * bbf(b2, b3)
    )


#: The 12 ordered pairs (i, j), i != j, of four factors, and the 24
#: orderings (s1, s2, s3, s4) as the pairs ((s1, s2), (s3, s4)) that
#: `fujiki_symmetrized` reads; tabled once at import.
_ORDERED_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i != j)
_ORDERINGS = tuple(((a, b), (c, d)) for a, b, c, d in permutations(range(4)))


def fujiki_symmetrized(
    b1: KummerTwoClass, b2: KummerTwoClass, b3: KummerTwoClass, b4: KummerTwoClass
) -> int | Fraction:
    """Oracle for fujiki_integral: (3/8) * sum over all 24 orderings of
    q(s1, s2) * q(s3, s4). Each matching appears 8 times in the sum.
    q is evaluated once per ordered pair (i, j), i != j, and tabled. No
    symmetry of q is assumed and the full 24-term sum is kept, so the
    oracle does not reduce to fujiki_integral's three-matching formula."""
    bs = (b1, b2, b3, b4)
    q = {(i, j): bbf(bs[i], bs[j]) for i, j in _ORDERED_PAIRS}
    total = 0
    for first, second in _ORDERINGS:
        total += q[first] * q[second]
    return _quotient(3 * total, 8)


def c2_pair(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
    """int c2 . a . b = C2_PAIR_COEFF * q(a, b)."""
    return C2_PAIR_COEFF * bbf(a, b)


#: Euler characteristic of a line bundle with q(c1) = q, a Poly in q:
#: 3 * binom(q/2 + 2, 2) = 3 (q + 4)(q + 2) / 8.
riemann_roch_from_square = 3 * (SYMBOL_A + 4) * (SYMBOL_A + 2) / 8


def riemann_roch(c1: KummerTwoClass) -> int | Fraction:
    """chi of the line bundle with first Chern class c1; q(c1) must be an
    even integer or the input is rejected."""
    q = bbf(c1, c1)
    if q.denominator != 1 or q.numerator % 2:
        raise ValueError(f"q(c1) = {_number_text(q)} is not an even integer")
    return riemann_roch_from_square(q)


def modularity_coefficient(form, model: AbelianSurfaceModel) -> int | Fraction | None:
    """The rational d with form(alpha, alpha) = d * q(alpha) for every degree-2
    class alpha of `model`, where `form` is a symmetric bilinear function of
    two KummerTwoClasses (such as c2_pair); tested on the three basis classes
    and all pairwise sums, which fix a symmetric bilinear form. The
    coefficient is read off mu(omegabar), whose square self_omega is never
    0; None when another probe disagrees with it."""
    es = basis(model)
    probes = list(es)
    for i in range(3):
        for j in range(i + 1, 3):
            probes.append(es[i] + es[j])
    pairs = [(form(t, t), bbf(t, t)) for t in probes]
    coeff = _quotient(*pairs[0])
    for val, qv in pairs:
        if val != coeff * qv:
            return None
    return coeff
