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

from collections.abc import Iterable, Iterator
from itertools import product
from numbers import Rational

from .lattice import GramLattice, _quotient

GRAM_V = GramLattice(((0, 4), (4, 0)))
GRAM_DELTA = GramLattice(((0, 1), (1, 0)))


def _check_md(m: int, d: int) -> int:
    if not (isinstance(m, int) and isinstance(d, int)):
        raise TypeError("m and d must be integers")
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive integers")
    md = m * d
    if md <= 1:
        raise ValueError("the fiber formulas need m*d > 1")
    return md


def restriction_c1_fiber_v(m: int, d: int) -> tuple[Rational, int]:
    """Coefficients of the polarization restricted to the V component in the
    (Sigma, Gamma) basis: ((md - 1)/2, 3 m d)."""
    md = _check_md(m, d)
    return (_quotient(md - 1, 2), 3 * md)


def restriction_c1_fiber_delta(m: int, d: int) -> tuple[int, int]:
    """Coefficients on the Delta component in the (Sigma, Lambda) basis."""
    md = _check_md(m, d)
    return (1, 12 * md)


def fiber_degrees(m: int, d: int) -> tuple[int, int]:
    """Degrees of the two fiber components: (12 m d (m d - 1), 24 m d)."""
    md = _check_md(m, d)
    return (12 * md * (md - 1), 24 * md)


def fiber_degrees_gram(m: int, d: int) -> tuple[Rational, int]:
    """Same degrees recomputed as lattice squares of the restricted
    polarization classes."""
    return (
        GRAM_V.square(restriction_c1_fiber_v(m, d)),
        GRAM_DELTA.square(restriction_c1_fiber_delta(m, d)),
    )


class SubsheafProfile:
    """Restriction ranks (r1', r1'', r2) of a subsheaf on the two rulings
    of V and on Delta; each lies in 0..4 for a rank-4 ambient sheaf."""

    __slots__ = ("r1p", "r1pp", "r2")

    def __init__(self, r1p: int, r1pp: int, r2: int) -> None:
        if not (isinstance(r1p, int) and isinstance(r1pp, int) and isinstance(r2, int)):
            raise TypeError("r1p, r1pp and r2 must be integers")
        for v in (r1p, r1pp, r2):
            if not 0 <= v <= 4:
                raise ValueError("restriction ranks must lie in 0..4")
        self.r1p = r1p
        self.r1pp = r1pp
        self.r2 = r2


def subsheaf_rank(profile: SubsheafProfile, m: int, d: int) -> Rational:
    """Generic rank forced by the degree bookkeeping:
    (r1' + r1'')/2 - (r1' + r1'' - 2 r2)/(2 m d)."""
    return _quotient(*_subsheaf_rank_raw(profile, _check_md(m, d)))


def _subsheaf_rank_raw(profile: SubsheafProfile, md: int) -> tuple[int, int]:
    """subsheaf_rank as (numerator, denominator), md = m d > 1 checked by the
    caller; the denominator 2 m d is positive and the pair is not reduced."""
    s = profile.r1p + profile.r1pp
    return (s * md - (s - 2 * profile.r2), 2 * md)


def _subsheaf_rank_weighted_raw(
    profile: SubsheafProfile, deg_v: int, deg_delta: int
) -> tuple[int, int]:
    """The same rank as the degree-weighted average over the fiber
    components of degrees (deg_v, deg_delta) = `fiber_degrees(m, d)`, as
    (numerator, denominator) with a positive denominator:
    (r1' + r1'') deg V + r2 deg Delta over 2 deg V + deg Delta."""
    s = profile.r1p + profile.r1pp
    return (s * deg_v + profile.r2 * deg_delta, 2 * deg_v + deg_delta)


def rank_failures(profiles: Iterable[SubsheafProfile], md: int) -> Iterator[int]:
    """Failed checks for each profile at m = 1, d = md > 8: whether
    integer_rank_criterion matches the integrality of the rank, and whether
    the two rank kernels agree. Both are (numerator, positive denominator)
    pairs, so the rank is integral iff the denominator divides the
    numerator, and the kernels agree iff the cross products are equal. The
    fiber degrees (and their check of md) are the same for every profile of
    the row, so they are computed once."""
    if not isinstance(md, int):
        raise TypeError("md must be an integer")
    deg_v, deg_delta = fiber_degrees(1, md)
    for profile in profiles:
        num, den = _subsheaf_rank_raw(profile, md)
        criterion_wrong = integer_rank_criterion(profile, 1, md) != (num % den == 0)
        w_num, w_den = _subsheaf_rank_weighted_raw(profile, deg_v, deg_delta)
        yield criterion_wrong + (w_num * den != num * w_den)


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
        raise TypeError("r2 and r1pp must be integers")
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
        raise TypeError("n must be an integer")
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
