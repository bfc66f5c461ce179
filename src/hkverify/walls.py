"""Wall numerics for the moduli space and the ampleness decision for the
candidate polarizations h = 2m * mu(omegabar) - delta.

Wall classes have square -6 and divisibility in {2, 3, 6}; the finite list
of admissible sub-vector numerics is enumerated from scratch. The
ampleness check runs the complete finite search for a violating class
(either a wall through h or a wall separating h from the polarization
ray) and also reports the blanket sufficiency thresholds in d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .kummer import KummerTwoClass, two_class
from .lattice import AbelianSurfaceModel


@dataclass(frozen=True)
class MukaiVector:
    """Triple (r, ell, s) with its ell-square; the full ell is not needed,
    only its square and selected dot products."""

    r: int
    ell_sq: int
    s: int

    def __post_init__(self) -> None:
        if self.ell_sq % 2:
            raise ValueError("ell^2 must be even")


def mukai_square(v: MukaiVector) -> int:
    """<v, v> = -2 r s + ell^2."""
    return -2 * v.r * v.s + v.ell_sq


#: Mukai vector of the moduli space carrying the family.
MODULI_VECTOR = MukaiVector(1, 0, -3)


@dataclass(frozen=True)
class WallNumerics:
    """Numeric shadow of a candidate sub-vector: its square ss, the pairing
    sv with the moduli vector, n = gcd(sv, 6), the induced wall square q and
    the admissible divisibilities."""

    ss: int
    sv: int
    n: int
    q: int
    div_candidates: frozenset[int]
    retained: bool


def generate_wall_cases() -> tuple[WallNumerics, ...]:
    """All (ss, sv) with ss in {0, 2, 4} and 0 <= ss < sv <= 3 + ss/2,
    with q = -(6/n^2)(sv^2 - 6 ss); cases with q >= 0 carry retained=False."""
    cases = []
    for ss in (0, 2, 4):
        for sv in range(ss + 1, 3 + ss // 2 + 1):
            n = gcd(sv, 6)
            q, rem = divmod(-6 * (sv * sv - 6 * ss), n * n)
            if rem:
                raise ArithmeticError("wall square must be an integer")
            step = 6 // n
            divs = frozenset(k for k in (1, 2, 3, 6) if k % step == 0)
            cases.append(
                WallNumerics(ss, sv, n, q, divs, retained=q < 0)
            )
    return tuple(cases)


def enumerate_wall_numerics() -> tuple[WallNumerics, ...]:
    """The retained wall cases (square strictly negative)."""
    return tuple(w for w in generate_wall_cases() if w.retained)


@dataclass(frozen=True)
class AmplenessResult:
    verdict: str                       # "ample" | "not-ample"
    witness: KummerTwoClass | None
    separating_threshold: int          # no separating wall once d > 24 abar^2 + 6 abar
    below_threshold: bool              # d does not exceed the blanket threshold

    def render(self) -> str:
        if self.verdict == "not-ample":
            p, q, x = self.witness.coeffs()
            return f"NotAmple (witness {p},{q},{x})"
        if self.below_threshold:
            return (
                "Ample (below certified threshold "
                f"d <= {self.separating_threshold})"
            )
        return "Ample"


def ample_thresholds(abar: int) -> tuple[int, int]:
    return (12 * abar + 3, 24 * abar * abar + 6 * abar)


def is_ample_h(abar: int, d: int, m: int) -> AmplenessResult:
    """Decide ampleness of h = 2m * mu(omegabar) - delta on the doubled
    model with omegabar^2 = 4 abar and omegabar.gamma = d.

    The search box is complete: a violating class mu(beta) - x delta has
    x = 0, beta.omegabar = 0, beta^2 = -6 (wall through h) or x = 1,
    beta.omegabar = c in {1, 2, 3} with m c <= 3, beta^2 in {0, 2}
    (separating wall), and writing beta = p omegabar + q gamma the pairing
    equation 4 abar p + q d = c pins q; |p| <= 2 suffices.
    """
    if abar < 1 or d < 1 or m < 1:
        raise ValueError("abar, d, m must be positive integers")
    if not (isinstance(abar, int) and isinstance(d, int) and isinstance(m, int)):
        # h is a class only for an integral m, and AbelianSurfaceModel(4 abar, d)
        # makes the same check for abar and d, but is built only for a witness
        raise TypeError("abar, d, m must be integers")
    _, separating_thr = ample_thresholds(abar)
    found: tuple[int, int, int] | None = None

    # wall through h: x = 0, beta orthogonal to omegabar, beta^2 = -6;
    # beta = p omegabar + q gamma needs 4 abar p + q d = 0
    for p in range(-2, 3):
        num = -4 * abar * p
        if p == 0 or num % d:
            continue
        q = num // d
        if 4 * abar * p * p + 2 * p * q * d == -6:
            if abs(p) == 2:
                raise ArithmeticError("ampleness search hit the box boundary")
            found = (p, q, 0)
            break

    # separating wall: x = 1, beta.omegabar = c with m c <= 3, beta^2 in {0, 2}
    if found is None:
        for c in (1, 2, 3):
            if m * c > 3:
                continue
            for p in range(-2, 3):
                num = c - 4 * abar * p
                if num % d:
                    continue
                q = num // d
                if 4 * abar * p * p + 2 * p * q * d in (0, 2):
                    if abs(p) == 2:
                        raise ArithmeticError(
                            "ampleness search hit the box boundary"
                        )
                    found = (p, q, -1)
                    break
            if found is not None:
                break

    witness = None if found is None else two_class(AbelianSurfaceModel(4 * abar, d), *found)
    return AmplenessResult(
        verdict="ample" if witness is None else "not-ample",
        witness=witness,
        separating_threshold=separating_thr,
        below_threshold=d <= separating_thr,
    )
