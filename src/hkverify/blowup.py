"""Intersection calculus on the blow-up X of the halved-model Kummer
fourfold along the distinguished surface V, and the degree-4 transfer to
the doubled-model Kummer fourfold.

A degree-2 class on X is the pullback of a halved-model class plus a
rational multiple of the exceptional divisor class D. Quartic monomials
reduce by the number k of D-factors:

    k = 0: the quartic form of the halved model,
    k = 1: 0,
    k = 2: minus the V-restriction pairing of the two remaining classes,
    k = 3: minus the V-pairing of delta with the remaining class,
           i.e. 81 times its delta-coefficient,
    k = 4: 162.

The V-restriction pairing of mu(z1) + t1*delta and mu(z2) + t2*delta is
18 * z1.z2 - 81 * t1 * t2, and the constants are tied together by
int_X D^4 = (c2 of the normal bundle) - (c1 of the normal bundle)^2
= 81 + 81 = 162, with c1 of the normal bundle the delta restriction. Every
one of these numbers is read from the four constants `V_PAIR_COEFF`,
`V_DELTA_SQUARE`, `C2_NORMAL` and `C2_AMBIENT`.

The rank-4 bundle is transferred from the line bundle on X whose class
`line` is the XTwoClass pullback(mu(omega) + x*delta) + y*D; `ch1_bundle`,
`ch2_pairing` and `delta_pairing_via_chern` take that class. The
discriminant Delta = ch1^2 - 8 ch2 of the bundle pairs with two
doubled-model classes by the closed forms `delta_pairing_closed` and
`delta_pairing_delta_delta`, which read only the twist t = x - y and which
`delta_pairing_via_chern` recomputes on X. `is_modular_bundle(t, model)`
hands the closed form, a plain bilinear function, to
`kummer.modularity_coefficient` for every twist, so the modular twists are
computed, not assumed.

The exceptional coefficients t of X classes are ints where they are integral
(`lattice._coef`), and every division is `lattice._quotient`: as in `kummer`,
each public form returns what its exact arithmetic gives, an int on integral
classes and otherwise an int or a Fraction, never a float.
"""

from __future__ import annotations

from fractions import Fraction

from .kummer import (
    C2_PAIR_COEFF,
    KummerTwoClass,
    basis,
    bbf,
    c2_pair,
    fujiki_integral,
    modularity_coefficient,
    mu_pair,
)
from .lattice import AbelianSurfaceModel, _coef, _quotient


# Intersection data of the blown-up surface V.
V_PAIR_COEFF = 18  # int_V (mu z1)|.(mu z2)| = 18 * z1.z2
V_DELTA_SQUARE = -81  # int_V (delta|)^2
C2_NORMAL = 81  # int_V c2 of the normal bundle
C2_AMBIENT = 243  # int_V c2 of the ambient fourfold, restricted


def _vf_pair(a: KummerTwoClass, b: KummerTwoClass):
    """Pairing on V of the restrictions of two halved-model degree-2
    classes: 18 * mu_pair(a, b) - 81 * (delta coefficients product)."""
    return V_PAIR_COEFF * mu_pair(a, b) + V_DELTA_SQUARE * a.x * b.x


class XTwoClass:
    """Degree-2 class on X: pullback of `base` plus t times the exceptional
    divisor class; t is an int where integral (`_coef`)."""

    __slots__ = ("base", "t")

    def __init__(self, base: KummerTwoClass, t) -> None:
        self.base = base
        self.t = t if t.__class__ is int else _coef(t)

    @property
    def model(self) -> AbelianSurfaceModel:
        return self.base.model


def exceptional_class(model: AbelianSurfaceModel) -> XTwoClass:
    return XTwoClass(KummerTwoClass(model, 0, 0, 0), 1)


#: (i, j, k, l): the exceptional factors i, j of a k = 2 term, and the
#: classes k, l whose bases pair on V.
_PAIR_SPLITS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def x_quartic(
    c1: XTwoClass, c2: XTwoClass, c3: XTwoClass, c4: XTwoClass
) -> int | Fraction:
    """Integral over X of a product of four degree-2 classes, by multilinear
    expansion into pullback/exceptional monomials and the reduction rules,
    grouped by k: the fujiki term, the six pair splits, the four triple
    terms and the D^4 term (the k = 1 terms vanish). The terms are linear in
    each base and each t, so the fujiki term is skipped when a base is zero
    and a pair split when one of its two t is zero."""
    bs = [c1.base, c2.base, c3.base, c4.base]
    t1, t2, t3, t4 = ts = [c1.t, c2.t, c3.t, c4.t]
    model, nonzero = c1.base.model, True
    for b in bs:
        if b.model is not model:
            raise ValueError("classes live on different fourfolds")
        if not (b.p or b.q or b.x):
            nonzero = False
    total = fujiki_integral(*bs) if nonzero else 0
    for i, j, k, l in _PAIR_SPLITS:
        if ts[i] and ts[j]:
            total -= ts[i] * ts[j] * _vf_pair(bs[k], bs[l])
    # k = 3: -int_V c1(N).b| with c1(N) = delta|, i.e. -V_DELTA_SQUARE * x
    triples = t2 * t3 * t4 * bs[0].x + t1 * t3 * t4 * bs[1].x
    triples += t1 * t2 * t4 * bs[2].x + t1 * t2 * t3 * bs[3].x
    # k = 4: int_X D^4 = c2(N) - c1(N)^2 with c1(N) = delta|
    return total - V_DELTA_SQUARE * triples + t1 * t2 * t3 * t4 * (C2_NORMAL - V_DELTA_SQUARE)


def halved_model(model: AbelianSurfaceModel) -> AbelianSurfaceModel:
    """Half of omegabar^2; the constructor refuses an odd half (ValueError)."""
    return AbelianSurfaceModel(_quotient(model.self_omega, 2), model.mixed_d)


def doubled_model(model: AbelianSurfaceModel) -> AbelianSurfaceModel:
    return AbelianSurfaceModel(2 * model.self_omega, model.mixed_d)


def pullback_correspondence(c: KummerTwoClass) -> XTwoClass:
    """Pull a doubled-model degree-2 class back to X through the degree-4
    correspondence: mu(p, q) + x*delta  ->  pullback of mu(2p, q) + x*delta
    on the halved model, plus x times the exceptional class."""
    return XTwoClass(KummerTwoClass(halved_model(c.model), 2 * c.p, c.q, c.x), c.x)


def pushforward_correspondence(c: XTwoClass) -> KummerTwoClass:
    """Push an X class forward to the doubled model: pulled-back mu(p, q)
    goes to 2*mu(p, 2q), and both the pulled-back delta and the exceptional
    class go to 2*delta."""
    big = doubled_model(c.model)
    return KummerTwoClass(big, 2 * c.base.p, 4 * c.base.q, 2 * (c.base.x + c.t))


def quartic_chain(model_small: AbelianSurfaceModel):
    """Decomposition of (1/4) * int_X (pulled-back delta + D)^4 by the number
    of exceptional factors: returns the k = 0, 2, 3 terms and the k = 4 term.

    The first three are (81, (3/2)*81, 81); adding (1/4) * int D^4 gives 324,
    the delta^4 integral on the doubled model.
    """
    q = XTwoClass(KummerTwoClass(model_small, 0, 0, 1), 0)
    d = exceptional_class(model_small)
    term0 = _quotient(x_quartic(q, q, q, q), 4)
    term2 = _quotient(6 * x_quartic(q, q, d, d), 4)
    term3 = _quotient(4 * x_quartic(q, d, d, d), 4)
    term4 = _quotient(x_quartic(d, d, d, d), 4)
    return (term0, term2, term3, term4)


def ch1_bundle(line: XTwoClass) -> KummerTwoClass:
    """First Chern character of the transferred rank-4 bundle for the line
    bundle with class line = pullback(mu(omega) + x*delta) + y*D:
    2 * mu(pushed omega) + (2x + 2y - 1) * delta on the doubled model."""
    big = doubled_model(line.model)
    base = line.base
    # push of p*omegabar + q*gamma through the isogeny is p*omegabar + 2q*gamma
    return KummerTwoClass(big, 2 * base.p, 4 * base.q, 2 * base.x + 2 * line.t - 1)


def ch1_bundle_via_pushforward(line: XTwoClass) -> KummerTwoClass:
    """Same class computed as pushforward of the line-bundle class minus half
    the pushforward of the exceptional class."""
    half_d = XTwoClass(KummerTwoClass(line.model, 0, 0, 0), Fraction(1, 2))
    return pushforward_correspondence(line) - pushforward_correspondence(half_d)


def ch2_pairing(line: XTwoClass, alpha: KummerTwoClass, beta: KummerTwoClass) -> int | Fraction:
    """int ch2(bundle) . alpha . beta on the doubled model, computed entirely
    on X: expand ch2 through the pushforward of ch(line bundle) * td(X) and
    integrate against the pulled-back classes.

    The c2(X) pairing against two X classes u, v is
    C2_PAIR_COEFF * q(u_base, v_base) - C2_AMBIENT t_u t_v  (pullback part)
    + vf(u_base, v_base) - C2_NORMAL t_u t_v     (exceptional correction),
    with C2_AMBIENT = 243 and C2_NORMAL = 81, and the ambient correction
    is -4 * td2 = -(1/3) c2, i.e. -(C2_PAIR_COEFF/3) q(alpha, beta). All three
    terms are summed over the common denominator 12, in ints on integral classes.
    alpha and beta must live on the doubled model of line.model, the one
    model object with those numbers (`lattice.AbelianSurfaceModel`).
    """
    if beta.model is not alpha.model or halved_model(alpha.model) is not line.model:
        raise ValueError("alpha, beta must live on the doubled model of the line class")
    u = pullback_correspondence(alpha)
    v = pullback_correspondence(beta)
    d = exceptional_class(line.model)
    c2x = (
        C2_PAIR_COEFF * bbf(u.base, v.base)
        # int_X pi^*c2 . D^2 = -int_V c2(ambient)|
        - C2_AMBIENT * u.t * v.t
        + _vf_pair(u.base, v.base)
        # int_X (exceptional correction) . D^2 = -int_V c2(N)
        - C2_NORMAL * u.t * v.t
    )
    twelve_times = (
        6 * (x_quartic(line, line, u, v) - x_quartic(line, d, u, v))
        + x_quartic(d, d, u, v)
        + c2x
        - 4 * C2_PAIR_COEFF * bbf(alpha, beta)
    )
    return _quotient(twelve_times, 12)


def delta_pairing_delta_delta(t) -> int | Fraction:
    """Closed form int Delta(bundle) . delta^2 = -324 * (t^2 + t + 1) for
    the twist t."""
    t = _coef(t)
    return -324 * (t * t + t + 1)


def delta_pairing_closed(t, alpha: KummerTwoClass, beta: KummerTwoClass) -> int | Fraction:
    """Closed form int Delta(bundle) . alpha . beta for the twist t:
    18 * (4t^2 + 4t + 3) * mu_pair(alpha, beta) plus the delta-delta closed
    form times x_alpha * x_beta; the mu-delta cross terms vanish."""
    t = _coef(t)
    return 18 * (4 * t * t + 4 * t + 3) * mu_pair(alpha, beta) + (
        delta_pairing_delta_delta(t) * alpha.x * beta.x
    )


def delta_pairing_via_chern(
    line: XTwoClass, alpha: KummerTwoClass, beta: KummerTwoClass
) -> int | Fraction:
    """Independent recomputation of int Delta . alpha . beta through
    Delta = ch1^2 - 8 ch2 and the X calculus."""
    c1 = ch1_bundle(line)
    return fujiki_integral(c1, c1, alpha, beta) - 8 * ch2_pairing(line, alpha, beta)


def is_modular_bundle(t, model_big: AbelianSurfaceModel) -> tuple[bool, int | Fraction | None]:
    """Whether Delta(bundle) on `model_big` is a rational multiple of the
    quadratic form, decided by `modularity_coefficient` on the closed forms
    for the twist t = x - y (it comes out true exactly for t in {0, -1}).
    A multiple must be C2_PAIR_COEFF, and Delta must then agree with c2 on
    the whole pairing basis, or ArithmeticError is raised. Returns the
    coefficient found, or None when there is none."""

    def delta(a: KummerTwoClass, b: KummerTwoClass) -> int | Fraction:
        return delta_pairing_closed(t, a, b)

    coeff = modularity_coefficient(delta, model_big)
    if coeff is None:
        return (False, None)
    if coeff != C2_PAIR_COEFF:
        raise ArithmeticError(f"modular coefficient came out as {coeff}")
    es = basis(model_big)
    if any(delta(a, b) != c2_pair(a, b) for a in es for b in es):
        raise ArithmeticError("Delta and c2 disagree on the basis")
    return (True, coeff)
