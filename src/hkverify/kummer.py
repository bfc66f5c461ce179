"""Degree-2 and degree-4 intersection theory on a generalized Kummer
fourfold attached to a rank-2 surface model.

The quadratic form on degree-2 classes is q(mu(ns) + x*delta) = ns.ns - 6x^2,
and quadruple products integrate through the quartic form
3 * (q12*q34 + q13*q24 + q14*q23). A degree-4 class paired with two degree-2
classes is a plain symmetric bilinear function of KummerTwoClass pairs, such
as `c2_pair`; `modularity_coefficient` finds the rational multiple of q that
such a function is, if any.

Class coefficients are ints where they are integral and Fractions
otherwise (`lattice._coef`), and every division is `lattice._quotient`: each
public form returns what its exact arithmetic gives, an int on integral
classes and otherwise an int or a Fraction, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .lattice import AbelianSurfaceModel, _coef, _exact_arg, _quotient

#: q(delta) on every generalized Kummer fourfold in this family.
DELTA_SQUARE = -6

#: int c2 . alpha . beta = 54 * q(alpha, beta).
C2_PAIR_COEFF = 54

#: int c2^2.
C2_SQUARE_VALUE = 756


@dataclass(frozen=True)
class NsClass:
    """Rational class p*omegabar + q*gamma in a surface model; p and q are
    ints where integral (`_coef`)."""

    model: AbelianSurfaceModel
    p: int | Fraction
    q: int | Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _coef(self.p))
        object.__setattr__(self, "q", _coef(self.q))

    def pair(self, other: "NsClass") -> int | Fraction:
        """self_omega*p*p' + mixed_d*(p*q' + q*p'), computed directly;
        model.gram().pair is its oracle."""
        m = self.model
        if m is not other.model and m != other.model:
            raise ValueError("classes live in different surface models")
        return m.self_omega * self.p * other.p + m.mixed_d * (self.p * other.q + self.q * other.p)

    def __add__(self, other: "NsClass") -> "NsClass":
        if self.model != other.model:
            raise ValueError("classes live in different surface models")
        return NsClass(self.model, self.p + other.p, self.q + other.q)

    def __neg__(self) -> "NsClass":
        return NsClass(self.model, -self.p, -self.q)

    def scale(self, k) -> "NsClass":
        k = _coef(k)
        return NsClass(self.model, k * self.p, k * self.q)


@dataclass(frozen=True)
class KummerTwoClass:
    """Degree-2 class mu(ns) + x*delta on the Kummer fourfold of ns.model;
    x is an int where integral (`_coef`)."""

    ns: NsClass
    x: int | Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _coef(self.x))

    @property
    def model(self) -> AbelianSurfaceModel:
        return self.ns.model

    def coeffs(self) -> tuple[int | Fraction, int | Fraction, int | Fraction]:
        return (self.ns.p, self.ns.q, self.x)

    def __add__(self, other: "KummerTwoClass") -> "KummerTwoClass":
        return KummerTwoClass(self.ns + other.ns, self.x + other.x)

    def __neg__(self) -> "KummerTwoClass":
        return KummerTwoClass(-self.ns, -self.x)

    def __sub__(self, other: "KummerTwoClass") -> "KummerTwoClass":
        return self + (-other)

    def scale(self, k) -> "KummerTwoClass":
        return KummerTwoClass(self.ns.scale(k), _coef(k) * self.x)


def two_class(model: AbelianSurfaceModel, p, q, x) -> KummerTwoClass:
    return KummerTwoClass(NsClass(model, p, q), x)


def basis(model: AbelianSurfaceModel) -> tuple[KummerTwoClass, ...]:
    """The degree-2 model basis (mu(omegabar), mu(gamma), delta)."""
    return (
        two_class(model, 1, 0, 0),
        two_class(model, 0, 1, 0),
        two_class(model, 0, 0, 1),
    )


def bbf(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
    """The degree-2 quadratic form, polarized: ns.ns - 6 * x_a * x_b."""
    return a.ns.pair(b.ns) + DELTA_SQUARE * a.x * b.x


def fujiki_integral(
    b1: KummerTwoClass, b2: KummerTwoClass, b3: KummerTwoClass, b4: KummerTwoClass
) -> int | Fraction:
    """Integral of a product of four degree-2 classes:
    3 * sum of q-products over the three perfect matchings of {1,2,3,4}.
    It is also the k = 0 term of blowup.x_quartic."""
    return 3 * (
        bbf(b1, b2) * bbf(b3, b4) + bbf(b1, b3) * bbf(b2, b4) + bbf(b1, b4) * bbf(b2, b3)
    )


def fujiki_symmetrized(
    b1: KummerTwoClass, b2: KummerTwoClass, b3: KummerTwoClass, b4: KummerTwoClass
) -> int | Fraction:
    """Oracle for fujiki_integral: (3/8) * sum over all 24 orderings of
    q(s1, s2) * q(s3, s4). Each matching appears 8 times in the sum.
    q is evaluated once per ordered pair (i, j), i != j, and tabled. No
    symmetry of q is assumed and the full 24-term sum is kept, so the
    oracle does not reduce to fujiki_integral's three-matching formula."""
    bs = (b1, b2, b3, b4)
    q = {(i, j): bbf(bs[i], bs[j]) for i in range(4) for j in range(4) if i != j}
    total = 0
    for s in permutations(range(4)):
        total += q[s[0], s[1]] * q[s[2], s[3]]
    return _quotient(3 * total, 8)


def c2_pair(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
    """int c2 . a . b = C2_PAIR_COEFF * q(a, b)."""
    return C2_PAIR_COEFF * bbf(a, b)


def c2_square() -> int:
    """int c2^2."""
    return C2_SQUARE_VALUE


@_exact_arg
def riemann_roch_from_square(qval):
    """Euler characteristic of a line bundle with q(c1) = qval:
    3 * binom(qval/2 + 2, 2) = 3 (qval + 4)(qval + 2) / 8. Accepts an int, a
    Fraction or a chern.Poly and computes exactly; a float raises TypeError."""
    return _quotient(3 * (qval + 4) * (qval + 2), 8)


def riemann_roch(c1: KummerTwoClass) -> int | Fraction:
    """chi of the line bundle with first Chern class c1; q(c1) must be an
    even integer or the input is rejected."""
    q = bbf(c1, c1)
    if q.denominator != 1 or q.numerator % 2:
        raise ValueError(f"q(c1) = {q} is not an even integer")
    return riemann_roch_from_square(q)


def modularity_coefficient(form, model: AbelianSurfaceModel) -> int | Fraction | None:
    """The rational d with form(alpha, alpha) = d * q(alpha) for every degree-2
    class alpha of `model`, where `form` is a symmetric bilinear function of
    two KummerTwoClasses (such as c2_pair); tested on the three basis classes
    and all pairwise sums, which fix a symmetric bilinear form. None when no
    single coefficient works."""
    es = basis(model)
    probes = list(es)
    for i in range(3):
        for j in range(i + 1, 3):
            probes.append(es[i] + es[j])
    pairs = [(form(t, t), bbf(t, t)) for t in probes]
    coeff: int | Fraction | None = None
    for val, qv in pairs:
        if qv != 0:
            coeff = _quotient(val, qv)
            break
    if coeff is None:
        return None
    for val, qv in pairs:
        if val != coeff * qv:
            return None
    return coeff
