"""The blow-up calculus: quartic reduction rules, the degree-4 transfer
between the two Kummer models, the transferred bundle's ch1/ch2, and the
discriminant pairing with its modularity window."""

import copy
import pickle
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkverify.blowup import (
    C2_AMBIENT,
    C2_NORMAL,
    V_DELTA_SQUARE,
    V_PAIR_COEFF,
    XTwoClass,
    ch1_bundle,
    ch1_bundle_via_pushforward,
    ch2_pairing,
    delta_pairing_closed,
    delta_pairing_delta_delta,
    delta_pairing_via_chern,
    doubled_model,
    exceptional_class,
    halved_model,
    is_modular_bundle,
    pullback_correspondence,
    pushforward_correspondence,
    quartic_chain,
    x_quartic,
)
from hkverify.kummer import (
    KummerTwoClass,
    basis,
    c2_pair,
    fujiki_integral,
    mu_pair,
)
from hkverify.lattice import AbelianSurfaceModel
from hkverify.report import _BIG, _DELTA_FRAME, _SMALL

BIG = AbelianSurfaceModel(4, 5)
SMALL = AbelianSurfaceModel(2, 5)

ints = st.integers(min_value=-4, max_value=4)
small_ints = st.integers(min_value=-3, max_value=3)


def line(p, q, x, y):
    """The line class pullback(mu(p*omegabar + q*gamma) + x*delta) + y*D."""
    return XTwoClass(KummerTwoClass(SMALL, p, q, x), y)


def big_classes():
    return st.builds(lambda p, q, x: KummerTwoClass(BIG, p, q, x), ints, ints, ints)


def x_classes():
    return st.builds(
        lambda p, q, x, t: XTwoClass(KummerTwoClass(SMALL, p, q, x), t),
        ints,
        ints,
        ints,
        ints,
    )


def test_vf_constants():
    assert (V_PAIR_COEFF, V_DELTA_SQUARE, C2_NORMAL, C2_AMBIENT) == (18, -81, 81, 243)
    assert C2_NORMAL - V_DELTA_SQUARE == 162


def test_vf_pair_values():
    # with two exceptional factors only the k = 2 rule is left:
    # int_X u.v.D.D = -vf(u, v)
    d = exceptional_class(SMALL)
    delta_r = XTwoClass(KummerTwoClass(SMALL, 0, 0, 1), 0)
    omega_r = XTwoClass(KummerTwoClass(SMALL, 1, 0, 0), 0)
    assert x_quartic(delta_r, delta_r, d, d) == 81
    assert x_quartic(omega_r, omega_r, d, d) == -36
    assert x_quartic(omega_r, delta_r, d, d) == 0


def test_exceptional_fourth_power():
    d = exceptional_class(SMALL)
    assert x_quartic(d, d, d, d) == 162


def test_mixed_exceptional_powers():
    q = XTwoClass(KummerTwoClass(SMALL, 0, 0, 1), 0)
    d = exceptional_class(SMALL)
    assert x_quartic(q, q, q, d) == 0
    assert x_quartic(q, q, d, d) == 81
    assert x_quartic(q, d, d, d) == 81


def test_quartic_chain():
    chain = quartic_chain(SMALL)
    assert chain == (81, Fraction(243, 2), 81, Fraction(81, 2))
    assert sum(chain) == 324


def test_x_quartic_rejects_mixed_models():
    d1 = exceptional_class(SMALL)
    d2 = exceptional_class(AbelianSurfaceModel(2, 3))
    with pytest.raises(ValueError):
        x_quartic(d1, d1, d1, d2)


def test_model_halving():
    # one model object per pair of numbers: halving and doubling give back
    # the very models the report's catalogue is built on
    assert halved_model(BIG) is SMALL is _SMALL
    assert doubled_model(SMALL) is BIG is _BIG
    with pytest.raises(ValueError):
        halved_model(SMALL)  # 2 is not divisible by 4


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))], ids=["deepcopy", "pickle"]
)
def test_copied_classes_keep_their_model(clone):
    line = XTwoClass(KummerTwoClass(SMALL, 1, Fraction(1, 2), 3), 2)
    copied = clone(line)
    assert copied.model is SMALL
    assert copied.base == line.base and copied.t == line.t
    # the copy still pairs with classes on the original models
    alpha = KummerTwoClass(BIG, 1, 0, 0)
    assert ch2_pairing(copied, alpha, alpha) == ch2_pairing(line, alpha, alpha)


def test_ch2_pairing_rejects_classes_off_the_line_models():
    line = XTwoClass(KummerTwoClass(SMALL, 1, 0, 0), 0)
    alpha = KummerTwoClass(BIG, 1, 0, 0)
    with pytest.raises(ValueError):
        ch2_pairing(line, alpha, KummerTwoClass(AbelianSurfaceModel(4, 3), 1, 0, 0))
    with pytest.raises(ValueError):
        ch2_pairing(XTwoClass(KummerTwoClass(AbelianSurfaceModel(2, 3), 1, 0, 0), 0), alpha, alpha)


@given(big_classes(), big_classes(), big_classes(), big_classes())
def test_pullback_has_degree_four(c1, c2, c3, c4):
    pbs = [pullback_correspondence(c) for c in (c1, c2, c3, c4)]
    assert x_quartic(*pbs) == 4 * fujiki_integral(c1, c2, c3, c4)


def test_pullback_of_delta_fourth():
    pb = pullback_correspondence(KummerTwoClass(BIG, 0, 0, 1))
    assert pb.base.coeffs() == (0, 0, 1)
    assert pb.t == 1
    assert x_quartic(pb, pb, pb, pb) == 1296


@given(big_classes())
def test_push_pull_is_multiplication_by_four(c):
    assert pushforward_correspondence(pullback_correspondence(c)) == c.scale(4)


def test_pushforward_of_exceptional():
    pushed = pushforward_correspondence(exceptional_class(SMALL))
    assert pushed.coeffs() == (0, 0, 2)


def test_x_class_arithmetic():
    u = XTwoClass(KummerTwoClass(SMALL, 1, 2, 3), 4)
    v = XTwoClass(KummerTwoClass(SMALL, 0, -2, 1), -1)
    s = XTwoClass(u.base + v.base, u.t + v.t)
    assert s.base.coeffs() == (1, 0, 4)
    assert s.t == 3
    assert type(XTwoClass(u.base, Fraction(4, 2)).t) is int


def test_ch1_values():
    assert ch1_bundle(line(1, 0, 0, 0)).coeffs() == (2, 0, -1)
    assert ch1_bundle(line(3, 0, 0, 0)).coeffs() == (6, 0, -1)
    assert ch1_bundle(line(1, 0, 1, 2)).coeffs() == (2, 0, 5)


@given(small_ints, small_ints, small_ints, small_ints)
def test_ch1_two_paths_agree(p, q, x, y):
    assert ch1_bundle(line(p, q, x, y)) == ch1_bundle_via_pushforward(line(p, q, x, y))


def test_ch2_delta_closed_form():
    # against two pulled-back delta classes the pairing is
    # (81/2)(5x^2 + 6xy + 5y^2 - 3x - 5y + 2) - 18 * omega^2
    delta = KummerTwoClass(BIG, 0, 0, 1)
    for x, y in [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 3)]:
        omega = line(1, 0, x, y).base
        expected = (
            Fraction(81, 2)
            * (5 * x * x + 6 * x * y + 5 * y * y - 3 * x - 5 * y + 2)
            - 18 * mu_pair(omega, omega)
        )
        assert ch2_pairing(line(1, 0, x, y), delta, delta) == expected


@given(small_ints, small_ints, small_ints, small_ints)
def test_discriminant_delta_delta_independent_of_omega(p, x, y, d_idx):
    # the omega^2 contributions cancel in ch1^2 - 8 ch2
    if p == 0:
        p = 1
    delta = KummerTwoClass(BIG, 0, 0, 1)
    got = delta_pairing_via_chern(line(p, d_idx, x, y), delta, delta)
    assert got == delta_pairing_delta_delta(x - y)


@given(small_ints, small_ints, big_classes(), big_classes())
def test_discriminant_pairing_two_paths_agree(x, y, alpha, beta):
    got = delta_pairing_via_chern(line(1, 0, x, y), alpha, beta)
    assert got == delta_pairing_closed(x - y, alpha, beta)


def test_discriminant_closed_form_values():
    omega, gamma, delta = basis(BIG)  # gamma is isotropic
    # t = 0: coefficient 18 * 3
    assert delta_pairing_closed(0, omega, omega) == 54 * 4
    # gamma vs omega picks up the mixed pairing 5
    assert delta_pairing_closed(0, gamma, omega) == 54 * 5
    # t = -2: coefficient 18 * (16 - 8 + 3) = 198
    assert delta_pairing_closed(-2, omega, omega) == 198 * 4
    # the mu-delta cross term, recomputed through ch1^2 - 8 ch2, vanishes
    assert delta_pairing_via_chern(line(1, 0, 1, 5), omega, delta) == 0
    assert delta_pairing_delta_delta(0) == -324
    assert delta_pairing_delta_delta(-1) == -324
    assert delta_pairing_delta_delta(1) == -972


def test_modularity_window():
    assert is_modular_bundle(0, BIG) == (True, 54)
    assert is_modular_bundle(-1, BIG) == (True, 54)
    assert is_modular_bundle(-2, BIG) == (False, None)
    assert is_modular_bundle(4, BIG) == (False, None)


@given(st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))
def test_modularity_iff_t_in_window(x, y):
    t = x - y
    modular, coeff = is_modular_bundle(t, BIG)
    assert modular == (t in (0, -1))
    assert coeff == (54 if modular else None)


def test_modular_discriminant_matches_c2_on_basis():
    for model in (BIG, AbelianSurfaceModel(4, 3), AbelianSurfaceModel(8, 7)):
        es = basis(model)
        for a, b, t in product(es, es, (0, -1)):
            assert delta_pairing_closed(t, a, b) == c2_pair(a, b)


# The facts the report's basis certificates rely on: x_quartic composed with
# the pullback is multilinear, and the Delta pairing through ch1^2 - 8 ch2 is
# bilinear in (alpha, beta) and of degree <= 2 in each of x and y.

rationals = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(1, 3))


def rational_big_classes():
    return st.builds(lambda p, q, x: KummerTwoClass(BIG, p, q, x), rationals, rationals, rationals)


def x_classes_with_zero_bases():
    return st.one_of(
        st.builds(
            lambda p, q, x, t: XTwoClass(KummerTwoClass(SMALL, p, q, x), t),
            rationals,
            rationals,
            rationals,
            rationals,
        ),
        st.builds(lambda t: XTwoClass(KummerTwoClass(SMALL, 0, 0, 0), t), rationals),
    )


@given(
    rational_big_classes(),
    rational_big_classes(),
    rational_big_classes(),
    rational_big_classes(),
    rational_big_classes(),
    rationals,
)
def test_pulled_back_quartic_is_linear_in_first_argument(a, b, c2, c3, c4, k):
    def quartic(c1):
        return x_quartic(*map(pullback_correspondence, (c1, c2, c3, c4)))

    assert quartic(a + b) == quartic(a) + quartic(b)
    assert quartic(a.scale(k)) == k * quartic(a)


@given(
    rationals,
    rationals,
    rational_big_classes(),
    rational_big_classes(),
    rational_big_classes(),
    rationals,
)
def test_delta_pairing_via_chern_is_bilinear(x, y, a, b, c, k):
    def pairing(alpha, beta):
        return delta_pairing_via_chern(line(1, 0, x, y), alpha, beta)

    assert pairing(a + b, c) == pairing(a, c) + pairing(b, c)
    assert pairing(c, a + b) == pairing(c, a) + pairing(c, b)
    assert pairing(a.scale(k), c) == k * pairing(a, c)
    assert pairing(c, a.scale(k)) == k * pairing(c, a)


@given(rationals, rationals, rationals, rationals, rational_big_classes(), rational_big_classes())
def test_delta_pairing_via_chern_has_degree_two_in_x_and_y(x, y, h, k, alpha, beta):
    # the third finite difference of a polynomial of degree <= 2 vanishes:
    # along x, along y and along (h, k), the last for the total degree <= 2
    # in (x, y) that the six-point frame of delta-pairing-two-paths needs
    signs = list(enumerate((1, -3, 3, -1)))
    for dx, dy in ((h, 0), (0, h), (h, k)):
        along = sum(
            s * delta_pairing_via_chern(line(1, 0, x + i * dx, y + i * dy), alpha, beta)
            for i, s in signs
        )
        assert along == 0, (dx, dy)


def _determinant(rows):
    """Determinant of a square matrix by exact Fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            factor = rows[r][i] / rows[i][i]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[i])]
    return det


def test_delta_frame_is_unisolvent_for_total_degree_two():
    # the 6x6 matrix of 1, x, y, x^2, xy, y^2 on the frame is invertible, so
    # the only polynomial of total degree <= 2 vanishing on it is zero
    assert len(_DELTA_FRAME) == 6
    monomials = [(1, x, y, x * x, x * y, y * y) for x, y in _DELTA_FRAME]
    assert _determinant(monomials) != 0


def test_delta_pairing_two_paths_agree_past_the_frame():
    # the identity that the frame proves, checked directly on the old 3x3
    # grid and past it: every (x, y) in [-3, 3]^2 and ordered basis pair
    es = basis(BIG)
    for x, y in product(range(-3, 4), repeat=2):
        for alpha, beta in product(es, es):
            via_chern = delta_pairing_via_chern(line(1, 0, x, y), alpha, beta)
            assert via_chern == delta_pairing_closed(x - y, alpha, beta), (x, y)


def _x_quartic_unskipped(cs):
    """The literal 16-pick expansion of x_quartic, with no term skipped."""
    total = Fraction(0)
    for picks in product((False, True), repeat=4):
        factor = prod((c.t for c, e in zip(cs, picks) if e), start=Fraction(1))
        bases = [c.base for c, e in zip(cs, picks) if not e]
        rules = {
            0: lambda: fujiki_integral(*bases),
            1: lambda: 0,
            # -vf, with vf = 18 * (mu pairing) - 81 * (delta coefficients product)
            2: lambda: 81 * Fraction(bases[0].x) * bases[1].x - 18 * mu_pair(bases[0], bases[1]),
            3: lambda: 81 * bases[0].x,
            4: lambda: 162,
        }
        total += factor * rules[4 - len(bases)]()
    return total


@given(
    x_classes_with_zero_bases(),
    x_classes_with_zero_bases(),
    x_classes_with_zero_bases(),
    x_classes_with_zero_bases(),
)
def test_x_quartic_matches_unskipped_expansion(c1, c2, c3, c4):
    assert x_quartic(c1, c2, c3, c4) == _x_quartic_unskipped((c1, c2, c3, c4))
