"""Chern numbers and Euler characteristics of the transferred rank-4
bundle, as exact polynomials in the polarization parameter a (the halved
model has omega^2 = 2a, so q(ch1) = 16a - 6).

Every entry is a `Poly` in a, and its value at a is a call:
`ch4_integral(7)`. The call (`Poly.__call__`) is the one input check: an
int or a Fraction gives an int or a Fraction, a Poly gives the composition,
and a float raises TypeError. Each entry is derived once, from the
constants of `kummer` and the entries above it, by the derivation its
comment names; no quantity is kept twice. Two entries are recorded literals,
as no second derivation of them exists here: `ch1sq_ch2_stated`, the stated
closed form for int ch1^2 ch2, which disagrees with the derived
`ch1sq_ch2_derived` (both are exposed so the report can flag exactly that
record), and the five summands of `gianni_decomposition`. The two
decompositions are tuples of Polys.
"""

from __future__ import annotations

from fractions import Fraction

from .kummer import C2_PAIR_COEFF, C2_SQUARE_VALUE, EULER_NUMBER, riemann_roch_from_square
from .lattice import SYMBOL_A, Poly, _quotient

_a = SYMBOL_A

#: Rank of the transferred bundle.
RANK = 4

#: chi(O) of a generalized Kummer fourfold, the Todd genus
#: (3 int c2^2 - int c4) / 720 = (3 * 756 - 108) / 720 = 3.
CHI_O = _quotient(3 * C2_SQUARE_VALUE - EULER_NUMBER, 720)

#: q(ch1) = 16a - 6.
ch1_square_q = 16 * _a - 6

#: int ch1^4 = 9 * q(ch1)^2 = 2304 a^2 - 1728 a + 324.
ch1_fourth = 9 * ch1_square_q * ch1_square_q

#: int ch1^2 . c2 = C2_PAIR_COEFF * q(ch1) = 54 q(ch1).
ch1sq_c2 = C2_PAIR_COEFF * ch1_square_q

#: int ch1^2 ch2 as stated: 576 a^2 - 540 a + 81.
ch1sq_ch2_stated = 576 * _a * _a - 540 * _a + 81

#: int ch1^2 ch2 via ch2 = (ch1^2 - c2)/8: (int ch1^4 - 54 q(ch1)) / 8
#: = 288 a^2 - 324 a + 81.
ch1sq_ch2_derived = (ch1_fourth - ch1sq_c2) / 8

#: The five summands of int ch1 ch3: the curvature-weighted piece and the
#: four Todd-expansion integrals, in that order.
gianni_decomposition = (27 - 72 * _a, Poly((Fraction(-27, 2),)), 36 * _a, -9 * _a, 24 * _a * _a)

#: int ch1 ch3 = 24 a^2 - 45 a + 27/2, the sum of the five summands.
ch1_ch3 = sum(gianni_decomposition)

#: int ch2^2 via ch2 = (ch1^2 - c2)/8:
#: (int ch1^4 - 2 * 54 q(ch1) + int c2^2) / 64 = 36 a^2 - 54 a + 27, with
#: int c2^2 = 756.
ch2_squared = (ch1_fourth - 2 * ch1sq_c2 + C2_SQUARE_VALUE) / 64

# int ch2 . c2 via ch2 = (ch1^2 - c2)/8: (54 q(ch1) - int c2^2) / 8 = 108a - 135.
_ch2_c2 = (ch1sq_c2 - C2_SQUARE_VALUE) / 8

#: int ch2 . td2 with td2 = c2/12: int ch2 . c2 / 12 = 9a - 45/4.
ch2_td2 = _ch2_c2 / 12

#: chi of the rank-4 bundle through the line-bundle count on the halved
#: model, where q(c1) = 2a: (3/2) a^2 + (9/2) a + 3.
chi_bundle = riemann_roch_from_square(2 * _a)

#: int ch4 from chi = rank * chi(O) + int ch2 td2 + int ch4 (HRR), solved
#: for int ch4: (3/2) a^2 - (9/2) a + 9/4.
ch4_integral = chi_bundle - RANK * CHI_O - ch2_td2

#: chi(End) = rank^2 chi(O) + (1/12) int (8 ch2 - ch1^2) c2
#: + int (8 ch4 - 2 ch1 ch3 + ch2^2), using derived entries only: the
#: three summands are the constants (48, -63, 18).
chi_end_decomposition = (
    Poly((RANK * RANK * CHI_O,)),
    (8 * _ch2_c2 - ch1sq_c2) / 12,
    8 * ch4_integral - 2 * ch1_ch3 + ch2_squared,
)

#: chi(End) = 3 = chi(O), the rigidity of the bundle.
chi_end = sum(chi_end_decomposition)

#: chi of the traceless endomorphisms: chi(End) - chi(O) = 0.
chi_end_traceless = chi_end - CHI_O


def a_invariant() -> int | Fraction:
    """The invariant rank^2 * d / (4 * chi(O)) controlling deformation
    counts, with d = C2_PAIR_COEFF the modularity coefficient; 16 * 54 / 12
    = 72 for the rank-4 bundle."""
    rank_sq, d, denom = a_invariant_components()
    return _quotient(rank_sq * d, denom)


def a_invariant_components() -> tuple[int, int, int]:
    return (RANK * RANK, C2_PAIR_COEFF, 4 * CHI_O)
