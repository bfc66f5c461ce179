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
    NsClass,
    basis,
    bbf,
    c2_pair,
    c2_square,
    fujiki_integral,
    fujiki_symmetrized,
    modularity_coefficient,
    riemann_roch,
    riemann_roch_from_square,
    two_class,
)
from hkverify.lattice import AbelianSurfaceModel

MODEL = AbelianSurfaceModel(4, 5)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def classes(model=MODEL):
    return st.builds(lambda p, q, x: two_class(model, p, q, x), coeffs, coeffs, coeffs)


def test_bbf_on_basis():
    mu_o, mu_g, delta = basis(MODEL)
    assert bbf(mu_o, mu_o) == 4
    assert bbf(mu_g, mu_g) == 0
    assert bbf(mu_o, mu_g) == 5
    assert bbf(delta, delta) == DELTA_SQUARE == -6
    assert bbf(mu_o, delta) == 0
    assert bbf(mu_g, delta) == 0


def test_bbf_polarization_square():
    h = two_class(MODEL, 2, 0, -1)
    assert bbf(h, h) == 10


def test_class_arithmetic():
    a = two_class(MODEL, 1, 2, 3)
    b = two_class(MODEL, -1, 0, 4)
    assert (a + b).coeffs() == (0, 2, 7)
    assert (a - b).coeffs() == (2, 2, -1)
    assert a.scale(Fraction(1, 2)).coeffs() == (Fraction(1, 2), 1, Fraction(3, 2))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.tuples(rationals, rationals),
    st.tuples(rationals, rationals),
)
def test_ns_pair_matches_gram_oracle(half_w, d, u, v):
    model = AbelianSurfaceModel(2 * half_w, d)
    value = NsClass(model, *u).pair(NsClass(model, *v))
    assert type(value) in (int, Fraction)
    assert value == model.gram().pair(u, v)


def test_ns_pair_input_errors():
    omega, gamma = NsClass(MODEL, 1, 0), NsClass(MODEL, 0, 1)
    assert omega.pair(gamma) == 5 and type(omega.pair(gamma)) is int
    with pytest.raises(TypeError):
        NsClass(MODEL, 1.0, 0)
    with pytest.raises(TypeError):
        NsClass(MODEL, 0, 0.5)


def test_mixed_models_rejected():
    other = AbelianSurfaceModel(2, 5)
    with pytest.raises(ValueError):
        bbf(two_class(MODEL, 1, 0, 0), two_class(other, 1, 0, 0))
    with pytest.raises(ValueError):
        two_class(MODEL, 1, 0, 0) + two_class(other, 1, 0, 0)


def test_delta_fourth_power():
    delta = two_class(MODEL, 0, 0, 1)
    assert fujiki_integral(delta, delta, delta, delta) == 324


def test_fujiki_square_of_square():
    # for a single class all three matchings coincide: integral = 9*q(z)^2
    z = two_class(MODEL, 2, -1, 3)
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
    delta = two_class(MODEL, 0, 0, 1)
    assert c2_pair(delta, delta) == -324
    assert C2_PAIR_COEFF == 54
    assert c2_square() == C2_SQUARE_VALUE == 756


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
    assert riemann_roch(two_class(small, 1, 0, 0)) == 9
    assert riemann_roch(two_class(MODEL, 2, 0, -1)) == 63
    assert riemann_roch(two_class(MODEL, 0, 0, 1)) == 3


def test_riemann_roch_rejects_non_even_square():
    # q of this class is 4*(1/2)^2 = 1, odd
    with pytest.raises(ValueError):
        riemann_roch(two_class(MODEL, Fraction(1, 2), 0, 0))


@given(st.integers(min_value=-6, max_value=20))
def test_riemann_roch_is_cubic_binomial(k):
    # chi = 3 * binom(q/2 + 2, 2) at q = 2k
    assert riemann_roch_from_square(2 * k) == 3 * (k + 2) * (k + 1) // 2


def test_modularity_coefficient_of_c2():
    assert modularity_coefficient(c2_pair, MODEL) == 54


def test_modularity_coefficient_rejects_generic_square():
    # alpha, beta -> int mu(omegabar)^2 . alpha . beta
    mu_o = two_class(MODEL, 1, 0, 0)
    assert modularity_coefficient(lambda a, b: fujiki_integral(mu_o, mu_o, a, b), MODEL) is None


def test_modularity_coefficient_accepts_scaled_c2():
    assert modularity_coefficient(lambda a, b: Fraction(c2_pair(a, b), 3), MODEL) == 18
