"""Numerics of the singular fibers of the support map: degrees of the two
components, ranks of restricted subsheaves, destabilizer margins, and the
monodromy action on torsion points.

The component V carries the rank-2 lattice (Sigma, Gamma) with
Sigma^2 = Gamma^2 = 0 and Sigma.Gamma = 4; the component Delta carries
(Sigma, Lambda) with Sigma.Lambda = 1, calibrated so that
(Sigma + 12 m d Lambda)^2 = 24 m d equals the second degree. A torsion
point ((a1, a2), (b1, b2)) is the 2x2 matrix with rows a and b, on which the
monodromy acts by left multiplication.
"""

from __future__ import annotations

from itertools import product
from numbers import Rational

from .lattice import GramLattice, _quotient, _reject

GRAM_V = GramLattice(((0, 4), (4, 0)))
GRAM_DELTA = GramLattice(((0, 1), (1, 0)))


def _check_md(m: int, d: int) -> int:
    if not (isinstance(m, int) and isinstance(d, int) and m > 0 and d > 0):
        _reject("m and d", m, d)
    md = m * d
    if md <= 1:
        raise ValueError("the fiber formulas need m*d > 1")
    return md


# The fiber formulas read (m, d) only through md = m d. Each kernel below
# takes md, an int > 1 that the caller has checked or a Poly, and computes
# with +, - and * and `_quotient` alone, so on a symbolic md it returns
# Polys and the report checks each identity once for every md.


def _restrictions(md):
    """The polarization restricted to the two components: ((md - 1)/2, 3 md)
    on V in the (Sigma, Gamma) basis, (1, 12 md) on Delta in the (Sigma,
    Lambda) basis."""
    return ((_quotient(md - 1, 2), 3 * md), (1, 12 * md))


def _degrees(md):
    """Degrees of the two fiber components: (12 md (md - 1), 24 md)."""
    return (12 * md * (md - 1), 24 * md)


def _gram_degrees(md):
    """The same degrees recomputed as the lattice squares of the restricted
    polarization classes."""
    v, delta = _restrictions(md)
    return (GRAM_V.square(v), GRAM_DELTA.square(delta))


def fiber_degrees(m: int, d: int) -> tuple[int, int]:
    """Degrees of the two fiber components: (12 m d (m d - 1), 24 m d)."""
    return _degrees(_check_md(m, d))


class SubsheafProfile:
    """Restriction ranks (r1', r1'', r2) of a subsheaf on the two rulings
    of V and on Delta; each lies in 0..4 for a rank-4 ambient sheaf."""

    __slots__ = ("r1p", "r1pp", "r2")

    def __init__(self, r1p: int, r1pp: int, r2: int) -> None:
        if not (isinstance(r1p, int) and isinstance(r1pp, int) and isinstance(r2, int)):
            _reject("r1p, r1pp and r2", r1p, r1pp, r2)
        for name, value in zip(self.__slots__, (r1p, r1pp, r2)):
            if not 0 <= value <= 4:
                raise ValueError(f"{name} must lie in 0..4")
        self.r1p = r1p
        self.r1pp = r1pp
        self.r2 = r2


def subsheaf_rank(profile: SubsheafProfile, m: int, d: int) -> Rational:
    """Generic rank forced by the degree bookkeeping:
    (r1' + r1'')/2 - (r1' + r1'' - 2 r2)/(2 m d)."""
    s = profile.r1p + profile.r1pp
    return _quotient(*_subsheaf_rank_raw(s, profile.r2, _check_md(m, d)))


def _subsheaf_rank_raw(s, r2, md):
    """The rank at s = r1' + r1'' as (numerator, denominator), unreduced:
    (s md - (s - 2 r2), 2 md)."""
    return (s * md - (s - 2 * r2), 2 * md)


def _subsheaf_rank_weighted_raw(s, r2, deg_v, deg_delta):
    """The same rank as the degree-weighted average over the fiber
    components of degrees (deg_v, deg_delta) = `_degrees(md)`, as
    (numerator, denominator): (s deg V + r2 deg Delta, 2 deg V + deg Delta)."""
    return (s * deg_v + r2 * deg_delta, 2 * deg_v + deg_delta)


def integer_rank_criterion(profile: SubsheafProfile, m: int, d: int) -> bool:
    """For m d > 8, the rank is an integer exactly when r1' + r1'' = 2 r2,
    and then it equals r2."""
    md = _check_md(m, d)
    if md <= 8:
        raise ValueError("the integrality criterion needs m*d > 8")
    return profile.r1p + profile.r1pp == 2 * profile.r2


def destabilizer_margin(r2: int, r1pp: int) -> Rational:
    """Slack of the destabilizing inequality for an integer-rank profile:
    33 - 6 r2 - (12 + 6 r1pp)/r2; positive slack rules the profile out."""
    if not (isinstance(r2, int) and isinstance(r1pp, int)):
        _reject("r2 and r1pp", r2, r1pp)
    if r2 not in (1, 2, 3) or not 0 <= r1pp <= 4:
        raise ValueError("a proper destabilizer has r2 in {1, 2, 3} and r1pp in 0..4")
    return 33 - 6 * r2 - _quotient(12 + 6 * r1pp, r2)


def destabilizer_profiles() -> tuple[SubsheafProfile, ...]:
    """Integer-rank profiles a destabilizer could have: r2 in {1, 2, 3},
    r1' + r1'' = 2 r2, r1' <= r1'' <= 4."""
    out = []
    for r2 in (1, 2, 3):
        s = 2 * r2
        for r1p in range(max(0, s - 4), r2 + 1):
            out.append(SubsheafProfile(r1p, s - r1p, r2))
    return tuple(out)


def minimum_destabilizer_margin() -> Rational:
    return min(destabilizer_margin(p.r2, p.r1pp) for p in destabilizer_profiles())


# --- monodromy on torsion points ------------------------------------------

_SWAP = ((0, 1), (1, 0))
_SHEAR = ((1, 0), (-1, -1))


def _mat_mul(g, x, n: int):
    """The 2x2 product g x mod n: composition in GL2(Z/n), and the action of
    g on the torsion point x."""
    (a, b), (c, d) = g
    (e, f), (h, k) = x
    return (
        ((a * e + b * h) % n, (a * f + b * k) % n),
        ((c * e + d * h) % n, (c * f + d * k) % n),
    )


#: The 2-torsion points (Z/2)^2 x (Z/2)^2, as 2x2 matrices.
_TWO_TORSION = tuple(product(product(range(2), repeat=2), repeat=2))


def monodromy_group(n: int) -> frozenset:
    """Closure of the swap and shear generators in GL2(Z/n)."""
    if not isinstance(n, int):
        _reject("n", n)
    if n < 2:
        raise ValueError("n must be at least 2")
    identity = ((1, 0), (0, 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in (_SWAP, _SHEAR):
            nxt = _mat_mul(g, cur, n)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def monodromy_fixed_points() -> frozenset:
    """Common fixed points of the monodromy group on the 2-torsion model
    (Z/2)^2 x (Z/2)^2; this is exactly the zero element."""
    group = monodromy_group(2)
    return frozenset(
        x for x in _TWO_TORSION if all(_mat_mul(g, x, 2) == x for g in group)
    )


def invariant_torsion_cosets() -> tuple[frozenset, ...]:
    """Cosets of the 2-torsion subgroup inside the 4-torsion model that the
    monodromy group preserves setwise; only the trivial coset survives. The
    2-torsion points represent the cosets."""
    group = monodromy_group(4)
    torsion = trivial_torsion_coset()
    invariant = []
    for (a1, a2), (b1, b2) in _TWO_TORSION:
        coset = frozenset(
            (((a1 + c1) % 4, (a2 + c2) % 4), ((b1 + d1) % 4, (b2 + d2) % 4))
            for (c1, c2), (d1, d2) in torsion
        )
        if all(frozenset(_mat_mul(g, x, 4) for x in coset) == coset for g in group):
            invariant.append(coset)
    return tuple(invariant)


def trivial_torsion_coset() -> frozenset:
    """The 2-torsion subgroup of the 4-torsion model: twice each 2-torsion
    point."""
    return frozenset(_mat_mul(((2, 0), (0, 2)), x, 4) for x in _TWO_TORSION)


def only_trivial_coset(cosets: tuple[frozenset, ...]) -> bool:
    """Whether the invariant cosets are exactly the trivial one."""
    return cosets == (trivial_torsion_coset(),)


def only_zero_fixed(fixed: frozenset) -> bool:
    """Whether the fixed 2-torsion points are exactly the zero element."""
    return fixed == frozenset({((0, 0), (0, 0))})
