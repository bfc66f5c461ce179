"""Intersection theory on the Kummer fourfold model: the degree-2 form,
the quartic integral and its symmetrized oracle, c2 pairings, and the
Riemann-Roch polynomial."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkverify.kummer import (
    C2_PAIR_COEFF,
    C2_SQUARE_VALUE,
    DELTA_SQUARE,
    KummerTwoClass,
    basis,
    bbf,
    c2_pair,
    fujiki_integral,
    fujiki_symmetrized,
    modularity_coefficient,
    mu_pair,
    riemann_roch,
    riemann_roch_from_square,
)
from hkverify.lattice import AbelianSurfaceModel

MODEL = AbelianSurfaceModel(4, 5)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def classes(model=MODEL):
    return st.builds(lambda p, q, x: KummerTwoClass(model, p, q, x), coeffs, coeffs, coeffs)


def test_bbf_on_basis():
    mu_o, mu_g, delta = basis(MODEL)
    assert bbf(mu_o, mu_o) == 4
    assert bbf(mu_g, mu_g) == 0
    assert bbf(mu_o, mu_g) == 5
    assert bbf(delta, delta) == DELTA_SQUARE == -6
    assert bbf(mu_o, delta) == 0
    assert bbf(mu_g, delta) == 0


def test_bbf_polarization_square():
    h = KummerTwoClass(MODEL, 2, 0, -1)
    assert bbf(h, h) == 10


def test_class_arithmetic():
    a = KummerTwoClass(MODEL, 1, 2, 3)
    b = KummerTwoClass(MODEL, -1, 0, 4)
    assert (a + b).coeffs() == (0, 2, 7)
    assert (a - b).coeffs() == (2, 2, -1)
    assert a.scale(Fraction(1, 2)).coeffs() == (Fraction(1, 2), 1, Fraction(3, 2))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.tuples(rationals, rationals),
    st.tuples(rationals, rationals),
    rationals,
    rationals,
)
def test_ns_pair_matches_gram_oracle(half_w, d, u, v, x, y):
    # mu_pair pairs the surface parts (p, q) and ignores the delta parts
    model = AbelianSurfaceModel(2 * half_w, d)
    value = mu_pair(KummerTwoClass(model, *u, x), KummerTwoClass(model, *v, y))
    assert type(value) in (int, Fraction)
    assert value == model.gram().pair(u, v)


def test_ns_pair_input_errors():
    omega, gamma, _ = basis(MODEL)
    assert mu_pair(omega, gamma) == 5 and type(mu_pair(omega, gamma)) is int
    with pytest.raises(ValueError):
        mu_pair(omega, KummerTwoClass(AbelianSurfaceModel(2, 5), 0, 1, 0))
    with pytest.raises(TypeError):
        KummerTwoClass(MODEL, 1.0, 0, 0)
    with pytest.raises(TypeError):
        KummerTwoClass(MODEL, 0, 0.5, 0)
    with pytest.raises(TypeError):
        KummerTwoClass(MODEL, 0, 0, 0.5)


def test_mixed_models_rejected():
    other = AbelianSurfaceModel(2, 5)
    with pytest.raises(ValueError):
        bbf(KummerTwoClass(MODEL, 1, 0, 0), KummerTwoClass(other, 1, 0, 0))
    with pytest.raises(ValueError):
        KummerTwoClass(MODEL, 1, 0, 0) + KummerTwoClass(other, 1, 0, 0)


def test_delta_fourth_power():
    delta = KummerTwoClass(MODEL, 0, 0, 1)
    assert fujiki_integral(delta, delta, delta, delta) == 324


def test_fujiki_square_of_square():
    # for a single class all three matchings coincide: integral = 9*q(z)^2
    z = KummerTwoClass(MODEL, 2, -1, 3)
    q = bbf(z, z)
    assert fujiki_integral(z, z, z, z) == 9 * q * q


@given(classes(), classes(), classes(), classes())
def test_fujiki_matches_symmetrized_oracle(b1, b2, b3, b4):
    assert fujiki_integral(b1, b2, b3, b4) == fujiki_symmetrized(b1, b2, b3, b4)


@given(classes(), classes(), classes(), classes())
def test_fujiki_symmetrized_equals_untabled_sum(b1, b2, b3, b4):
    # the oracle tables q once per ordered pair; the plain 48-evaluation
    # sum over all 24 orderings must give the same value
    bs = (b1, b2, b3, b4)
    total = sum(
        (bbf(bs[i], bs[j]) * bbf(bs[k], bs[m]) for i, j, k, m in permutations(range(4))),
        Fraction(0),
    )
    assert fujiki_symmetrized(b1, b2, b3, b4) == Fraction(3, 8) * total


@given(classes(), classes(), classes(), classes())
def test_fujiki_symmetric_in_arguments(b1, b2, b3, b4):
    ref = fujiki_integral(b1, b2, b3, b4)
    assert fujiki_integral(b2, b1, b3, b4) == ref
    assert fujiki_integral(b4, b3, b2, b1) == ref
    assert fujiki_integral(b3, b1, b4, b2) == ref


@given(classes(), classes(), classes(), classes(), classes())
def test_fujiki_multilinear(b1, b2, b3, b4, b5):
    lhs = fujiki_integral(b1 + b5, b2, b3, b4)
    rhs = fujiki_integral(b1, b2, b3, b4) + fujiki_integral(b5, b2, b3, b4)
    assert lhs == rhs


def test_c2_values():
    delta = KummerTwoClass(MODEL, 0, 0, 1)
    assert c2_pair(delta, delta) == -324
    assert C2_PAIR_COEFF == 54
    assert C2_SQUARE_VALUE == 756


def test_riemann_roch_from_square_table():
    table = {0: 3, 2: 9, 4: 18, 10: 63, -2: 0, -6: 3}
    for q, chi in table.items():
        assert riemann_roch_from_square(q) == chi


def test_riemann_roch_from_square_rejects_floats():
    # unchecked, a float q gave a float chi: 3 * 5.5 * 3.5 / 8
    with pytest.raises(TypeError):
        riemann_roch_from_square(1.5)


def test_riemann_roch_on_classes():
    small = AbelianSurfaceModel(2, 5)
    assert riemann_roch(KummerTwoClass(small, 1, 0, 0)) == 9
    assert riemann_roch(KummerTwoClass(MODEL, 2, 0, -1)) == 63
    assert riemann_roch(KummerTwoClass(MODEL, 0, 0, 1)) == 3


def test_riemann_roch_rejects_non_even_square():
    # q of this class is 4*(1/2)^2 = 1, odd
    with pytest.raises(ValueError):
        riemann_roch(KummerTwoClass(MODEL, Fraction(1, 2), 0, 0))


@given(st.integers(min_value=-6, max_value=20))
def test_riemann_roch_is_cubic_binomial(k):
    # chi = 3 * binom(q/2 + 2, 2) at q = 2k
    assert riemann_roch_from_square(2 * k) == 3 * (k + 2) * (k + 1) // 2


def test_modularity_coefficient_of_c2():
    assert modularity_coefficient(c2_pair, MODEL) == 54


def test_modularity_coefficient_rejects_generic_square():
    # alpha, beta -> int mu(omegabar)^2 . alpha . beta
    mu_o = KummerTwoClass(MODEL, 1, 0, 0)
    assert modularity_coefficient(lambda a, b: fujiki_integral(mu_o, mu_o, a, b), MODEL) is None


def test_modularity_coefficient_probes_pairwise_sums():
    # symmetric and bilinear, and 54 * q on every basis square; only the
    # mu(omegabar) + delta probe sees the cross term, so a probe set of the
    # basis alone would return 54
    def form(a, b):
        return c2_pair(a, b) + a.p * b.x + a.x * b.p

    assert all(form(e, e) == 54 * bbf(e, e) for e in basis(MODEL))
    assert modularity_coefficient(form, MODEL) is None


def test_modularity_coefficient_rejects_a_form_vanishing_on_mu_omegabar():
    # the coefficient read off mu(omegabar) is 0, and mu(gamma) disagrees
    def form(a, b):
        return a.q * b.q + a.x * b.x

    assert form(basis(MODEL)[0], basis(MODEL)[0]) == 0
    assert modularity_coefficient(form, MODEL) is None


def test_modularity_coefficient_of_the_zero_form():
    assert modularity_coefficient(lambda a, b: 0, MODEL) == 0


def test_modularity_coefficient_accepts_scaled_c2():
    assert modularity_coefficient(lambda a, b: Fraction(c2_pair(a, b), 3), MODEL) == 18
