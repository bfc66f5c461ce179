"""Wall numerics for the moduli space and the ampleness decision for the
candidate polarizations h = 2m * mu(omegabar) - delta.

Wall classes have square -6 and divisibility in {2, 3, 6}; the finite list
of admissible sub-vector numerics is enumerated from scratch. The
ampleness check runs the complete finite search for a violating class
(either a wall through h or a wall separating h from the polarization
ray); `ampleness_text` also reports the blanket sufficiency threshold in d.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .kummer import KummerTwoClass
from .lattice import AbelianSurfaceModel, _number_text


def mukai_square(r: int, ell_sq: int, s: int) -> int:
    """<v, v> = -2 r s + ell^2 for the Mukai vector v = (r, ell, s); the full
    ell is not needed, only its square."""
    if not (isinstance(r, int) and isinstance(ell_sq, int) and isinstance(s, int)):
        raise TypeError("r, ell_sq and s must be integers")
    return -2 * r * s + ell_sq


#: Mukai vector (r, ell^2, s) of the moduli space carrying the family.
MODULI_VECTOR = (1, 0, -3)


def generate_wall_cases() -> tuple[tuple[int, int, int, int, frozenset[int]], ...]:
    """The numeric shadow (ss, sv, n, q, divs) of each candidate sub-vector:
    its square ss in {0, 2, 4}, the pairing sv with the moduli vector,
    0 <= ss < sv <= 3 + ss/2, n = gcd(sv, 6), the induced wall square
    q = -(6/n^2)(sv^2 - 6 ss) and the admissible divisibilities divs. Only
    the cases with q < 0 are walls."""
    cases = []
    for ss in (0, 2, 4):
        for sv in range(ss + 1, 3 + ss // 2 + 1):
            n = gcd(sv, 6)
            q, rem = divmod(-6 * (sv * sv - 6 * ss), n * n)
            if rem:
                raise ArithmeticError("wall square must be an integer")
            step = 6 // n
            divs = frozenset(k for k in (1, 2, 3, 6) if k % step == 0)
            cases.append((ss, sv, n, q, divs))
    return tuple(cases)


def ample_thresholds(abar: int) -> tuple[int, int]:
    """(12 abar + 3, 24 abar^2 + 6 abar): the wall threshold and the
    separating threshold in d, for abar >= 1."""
    if not isinstance(abar, int):
        raise TypeError("abar must be an integer")
    if abar < 1:
        raise ValueError("abar must be a positive integer")
    return (12 * abar + 3, 24 * abar * abar + 6 * abar)


#: (c, coefficient of delta, allowed beta^2): the wall through h, then the
#: separating walls by c; those need m c <= 3, so they end at c = 3 // m
_WALL_SEARCHES = ((0, 0, (-6,)), (1, -1, (0, 2)), (2, -1, (0, 2)), (3, -1, (0, 2)))


def is_ample_h(abar: int, d: int, m: int) -> KummerTwoClass | None:
    """Decide ampleness of h = 2m * mu(omegabar) - delta on the doubled
    model with omegabar^2 = 4 abar and omegabar.gamma = d.

    The search box is complete: a violating class mu(beta) - x delta has
    x = 0, beta.omegabar = 0, beta^2 = -6 (wall through h) or x = 1,
    beta.omegabar = c in {1, 2, 3} with m c <= 3, beta^2 in {0, 2}
    (separating wall), and writing beta = p omegabar + q gamma the pairing
    equation 4 abar p + q d = c pins q; |p| <= 2 suffices. Returns the
    violating class found, or None when h is ample.
    """
    if abar < 1 or d < 1 or m < 1:
        raise ValueError("abar, d, m must be positive integers")
    if not (isinstance(abar, int) and isinstance(d, int) and isinstance(m, int)):
        # h is a class only for an integral m, and AbelianSurfaceModel(4 abar, d)
        # makes the same check for abar and d, but is built only for a witness
        raise TypeError("abar, d, m must be integers")
    for (c, x, squares), p in product(_WALL_SEARCHES[: 1 + 3 // m], range(-2, 3)):
        num = c - 4 * abar * p
        if num % d == 0 and 4 * abar * p * p + 2 * p * (num // d) * d in squares:
            if abs(p) == 2:
                raise ArithmeticError("ampleness search hit the box boundary")
            return KummerTwoClass(AbelianSurfaceModel(4 * abar, d), p, num // d, x)
    return None


def ampleness_text(abar: int, d: int, m: int) -> str:
    """The verdict of `is_ample_h` as the `ample` command prints it, with the
    witness of a non-ample h, or the separating threshold when d does not
    exceed it (no separating wall once d > 24 abar^2 + 6 abar)."""
    witness = is_ample_h(abar, d, m)
    if witness is not None:
        return f"NotAmple (witness {','.join(map(_number_text, witness.coeffs()))})"
    _, separating_thr = ample_thresholds(abar)
    if d <= separating_thr:
        return f"Ample (below certified threshold d <= {_number_text(separating_thr)})"
    return "Ample"
