"""Tests for the lattice primitives: Gram pairings, discriminants,
divisibility, and the congruence bookkeeping for moduli cases."""

import copy
import pickle
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from hkverify.blowup import doubled_model, halved_model
from hkverify.lattice import (
    SYMBOL_A,
    AbelianSurfaceModel,
    GramLattice,
    Poly,
    classify_moduli_case,
    kummer_divisibility,
    nocamere_bound,
    theorem_hypothesis,
)

ints = st.integers(min_value=-9, max_value=9)


def max_negative_square(lattice: GramLattice, box: int) -> int | None:
    """Largest self-pairing strictly below zero over the coefficient box
    [-box, box]^2, or None when no vector in the box has negative square:
    the brute-force search that nocamere_bound is compared with."""
    squares = (lattice.square(coords) for coords in product(range(-box, box + 1), repeat=2))
    return max((q for q in squares if q < 0), default=None)


@st.composite
def symmetric_matrices(draw):
    """Even symmetric 2x2 integer matrices, the only Gram matrices the
    package builds; half of them get a zero leading entry."""
    a, b, d = draw(ints), draw(ints), draw(ints)
    if draw(st.booleans()):
        a = 0
    return ((2 * a, b), (b, 2 * d))


def test_gram_pair_basics():
    lat = GramLattice(((2, 1), (1, 2)))
    assert lat.pair((1, 0), (0, 1)) == 1
    assert lat.square((1, 1)) == 6
    assert lat.discriminant() == 3


@given(symmetric_matrices())
def test_discriminant_matches_sympy(gram):
    assert GramLattice(gram).discriminant() == sympy.Matrix(gram).det()


@pytest.mark.parametrize(
    "gram",
    [
        ((0, 4), (4, 0)),  # the fiber lattice V: zero leading entry
        ((0, 0), (0, 2)),  # zero first column: singular
    ],
)
def test_discriminant_zero_pivots(gram):
    assert GramLattice(gram).discriminant() == sympy.Matrix(gram).det()


def test_gram_even_validation():
    GramLattice(((2, 3), (3, 4)))
    with pytest.raises(ValueError):
        GramLattice(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        GramLattice(((2, 0), (0, 3)))


@pytest.mark.parametrize("entry", [Fraction(1, 2), 2.5])
def test_gram_rejects_non_integer_entries(entry):
    # a fractional entry would make discriminant() and every pairing a
    # Fraction or a float
    with pytest.raises(TypeError):
        GramLattice(((entry, 0), (0, 4)))


@pytest.mark.parametrize("gram", [((-7,),), ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((2, 0), (0,))])
def test_gram_rejects_other_shapes(gram):
    with pytest.raises(ValueError):
        GramLattice(gram)


def test_gram_rejects_asymmetric():
    with pytest.raises(ValueError):
        GramLattice(((0, 1), (2, 0)))


@given(ints, ints, ints, ints)
def test_gram_pair_symmetric(a, b, c, d):
    lat = GramLattice(((2, -1), (-1, 4)))
    assert lat.pair((a, b), (c, d)) == lat.pair((c, d), (a, b))


@given(ints, ints, ints, ints, ints, ints)
def test_gram_pair_bilinear(a, b, c, d, e, f):
    lat = GramLattice(((2, -1), (-1, 4)))
    u, v, w = (a, b), (c, d), (e, f)
    lhs = lat.pair((u[0] + v[0], u[1] + v[1]), w)
    assert lhs == lat.pair(u, w) + lat.pair(v, w)


def test_surface_model_gram():
    model = AbelianSurfaceModel(4, 5)
    assert model.gram().gram == ((4, 5), (5, 0))
    assert model.discriminant() == -25
    assert model.gram().pair((1, 0), (0, 1)) == 5


def test_surface_model_discriminant_is_minus_d_squared():
    for d in (1, 3, 5, 7, 11):
        for so in (2, 4, 8):
            assert AbelianSurfaceModel(so, d).discriminant() == -d * d


def test_surface_model_validation():
    # each message names the parameter, as the TypeError does
    with pytest.raises(ValueError, match=r"^self_omega "):
        AbelianSurfaceModel(3, 5)  # odd self-pairing
    with pytest.raises(ValueError, match=r"^self_omega "):
        AbelianSurfaceModel(0, 5)
    with pytest.raises(ValueError, match=r"^mixed_d "):
        AbelianSurfaceModel(4, 0)
    with pytest.raises(ValueError, match=r"^mixed_d "):
        AbelianSurfaceModel(4, -3)


@pytest.mark.parametrize("self_omega, mixed_d", [(4.0, 5), (4, Fraction(5))])
def test_surface_model_rejects_non_integer_parameters(self_omega, mixed_d):
    # unchecked, (4.0, 5) makes the surface pairing of omegabar with itself
    # return the float 4.0
    with pytest.raises(TypeError):
        AbelianSurfaceModel(self_omega, mixed_d)


def test_surface_models_are_one_object_per_pair():
    # so that every check that two classes share a model is `is`
    assert AbelianSurfaceModel(4, 5) is AbelianSurfaceModel(4, 5)
    assert AbelianSurfaceModel(4, 5) is not AbelianSurfaceModel(4, 3)
    assert AbelianSurfaceModel(4, 5) is not AbelianSurfaceModel(2, 5)
    # copies and pickles go through the constructor and give the model back
    model = AbelianSurfaceModel(4, 5)
    assert copy.copy(model) is model
    assert copy.deepcopy(model) is model
    assert pickle.loads(pickle.dumps(model)) is model


@pytest.mark.parametrize("self_omega, mixed_d", [(4.0, 5), (4, 5.0), (4, 5.5)])
def test_surface_model_checks_types_before_the_lookup(self_omega, mixed_d):
    # 4.0 hashes like 4: looked up first, (4.0, 5) would find the int model
    AbelianSurfaceModel(4, 5)
    with pytest.raises(TypeError):
        AbelianSurfaceModel(self_omega, mixed_d)


def test_surface_model_stores_ints():
    model = AbelianSurfaceModel(4, True)
    assert type(model.mixed_d) is int and model.mixed_d == 1
    assert model is AbelianSurfaceModel(4, 1)


def test_symbolic_model_is_one_object_per_value():
    model = AbelianSurfaceModel(2 * SYMBOL_A, 5)
    assert model is AbelianSurfaceModel(2 * SYMBOL_A, 5)
    assert model is AbelianSurfaceModel(Poly((0, Fraction(4, 2))), 5)
    assert model.self_omega == 2 * SYMBOL_A and model.mixed_d == 5
    assert model is not AbelianSurfaceModel(2 * SYMBOL_A, 7)
    assert model is not AbelianSurfaceModel(2, 5)
    assert copy.deepcopy(model) is model
    assert pickle.loads(pickle.dumps(model)) is model


@pytest.mark.parametrize("d", [1, 5])
def test_symbolic_models_halve_and_double(d):
    small = AbelianSurfaceModel(2 * SYMBOL_A, d)
    big = AbelianSurfaceModel(4 * SYMBOL_A, d)
    assert doubled_model(small) is big
    assert halved_model(big) is small
    with pytest.raises(ValueError):
        halved_model(small)  # a is not k*a with k even


@pytest.mark.parametrize(
    "self_omega",
    [
        2 * SYMBOL_A + 2,
        -2 * SYMBOL_A,
        3 * SYMBOL_A,
        2 * SYMBOL_A * SYMBOL_A,
        Poly((4,)),  # not a second model for 4
        Poly(()),
        Poly((0, Fraction(5, 2))),
        Poly((Fraction(1, 2), 2)),
    ],
    ids=["2a+2", "-2a", "3a", "2a^2", "constant-4", "zero", "5a/2", "1/2+2a"],
)
def test_symbolic_model_accepts_only_an_even_multiple_of_a(self_omega):
    # k*a is checked as its k: a negative or odd k is a ValueError, any other
    # Poly (a constant, a Fraction k) is not an int and a TypeError
    AbelianSurfaceModel(4, 5)
    with pytest.raises((TypeError, ValueError), match=r"^self_omega "):
        AbelianSurfaceModel(self_omega, 5)


@pytest.mark.parametrize(
    "mixed_d, error, message",
    [(0, ValueError, "mixed_d must be a positive integer"), (5.0, TypeError, "must be integers")],
    ids=["zero", "float"],
)
def test_symbolic_model_checks_mixed_d(mixed_d, error, message):
    with pytest.raises(error, match=message):
        AbelianSurfaceModel(2 * SYMBOL_A, mixed_d)


small_polys = st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4)), max_size=4
).map(Poly)


@given(small_polys, st.integers(-9, 9))
def test_poly_times_an_int_is_the_product_with_the_constant_poly(p, k):
    # the exact-int branch of Poly.__mul__ against the general product
    general = p * Poly((k,))
    for scaled in (p * k, k * p):
        assert scaled.coeffs == general.coeffs
        assert list(map(type, scaled.coeffs)) == list(map(type, general.coeffs))
    assert (p * 0).coeffs == ()


def test_max_negative_square_small_box():
    lat = GramLattice(((-2, 0), (0, -2)))
    assert max_negative_square(lat, 2) == -2
    # positive definite lattice has no negative squares
    assert max_negative_square(GramLattice(((2, 0), (0, 2))), 3) is None


def test_nocamere_bound_values():
    assert nocamere_bound(3, 0) == -6
    assert nocamere_bound(1, 0) == -2
    assert nocamere_bound(3, 2) == -2


@given(st.integers(min_value=1, max_value=6))
def test_nocamere_bound_attained_on_hyperbolic_lattice(d0):
    # rank 2 hyperbolic-type lattice scaled by d0: squares 2*d0*x*y
    lat = GramLattice(((0, d0), (d0, 0)))
    assert max_negative_square(lat, 4) == nocamere_bound(d0, 0) == -2 * d0


def test_divisibility_values():
    assert kummer_divisibility(2, 0, -1) == 2
    assert kummer_divisibility(6, 0, -1) == 6
    assert kummer_divisibility(1, 0, 0) == 1
    assert kummer_divisibility(0, 0, 1) == 6


def test_divisibility_errors():
    with pytest.raises(ValueError):
        kummer_divisibility(0, 0, 0)
    with pytest.raises(TypeError):
        kummer_divisibility(Fraction(1, 2), 0, 0)


@given(ints, ints, ints)
def test_divisibility_divides_six_times_coeffs(p, q, x):
    if p == q == x == 0:
        return
    div = kummer_divisibility(p, q, x)
    assert div >= 1
    assert p % div == 0 and q % div == 0 and (6 * x) % div == 0


def test_moduli_case_classification():
    assert classify_moduli_case(10, 2) is True
    assert classify_moduli_case(4, 1) is True
    assert classify_moduli_case(3, 1) is False
    assert classify_moduli_case(12, 2) is False
    assert classify_moduli_case(138, 6) is True


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (classify_moduli_case, (0, 5), "e must be a positive integer"),
        (classify_moduli_case, (0, 2), "e must be a positive integer"),
        (classify_moduli_case, (10, 4), "index i must be one of 1, 2, 3, 6"),
        (theorem_hypothesis, (0, 5), "e must be a positive integer"),
        (theorem_hypothesis, (-6, 2), "e must be a positive integer"),
        (theorem_hypothesis, (10, 1), "the hypothesis covers only i = 2 and i = 6"),
    ],
)
def test_moduli_case_messages(fn, args, message):
    # e is the first argument and is checked first: with both e and i out
    # of range, the message names e (classify_moduli_case(0, 5) named i)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*args)


def test_theorem_hypothesis_values():
    assert theorem_hypothesis(10, 2) == 1
    assert theorem_hypothesis(26, 2) == 2
    assert theorem_hypothesis(138, 6) == 1
    assert theorem_hypothesis(12, 2) is None


@given(st.integers(min_value=1, max_value=40))
def test_theorem_hypothesis_round_trip_i2(abar):
    # e = 16*abar - 6 satisfies e = 10 mod 16 and recovers abar
    e = 16 * abar - 6
    assert theorem_hypothesis(e, 2) == abar
    assert classify_moduli_case(e, 2) is True
