"""Fiber-restriction bookkeeping for the rank-4 sheaf: component degrees,
forced subsheaf ranks, destabilizer margins, and the monodromy action on
torsion points."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkverify.fiber import (
    GRAM_DELTA,
    GRAM_V,
    SubsheafProfile,
    destabilizer_margin,
    destabilizer_profiles,
    fiber_degrees,
    fiber_degrees_gram,
    integer_rank_criterion,
    invariant_torsion_cosets,
    minimum_destabilizer_margin,
    monodromy_fixed_points,
    monodromy_group,
    rank_failures,
    restriction_c1_fiber_delta,
    restriction_c1_fiber_v,
    subsheaf_rank,
    trivial_torsion_coset,
    _subsheaf_rank_raw,
    _subsheaf_rank_weighted_raw,
)

small_md = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=12)
).filter(lambda t: t[0] * t[1] > 1)


def test_component_degrees():
    assert fiber_degrees(1, 9) == (864, 216)
    assert fiber_degrees(1, 3) == (72, 72)
    assert fiber_degrees(3, 3) == (864, 216)  # only the product md enters


def test_restriction_coefficients():
    assert restriction_c1_fiber_v(1, 9) == (4, 27)
    assert restriction_c1_fiber_delta(1, 9) == (1, 108)


def test_gram_matrices():
    assert GRAM_V.gram == ((0, 4), (4, 0))
    assert GRAM_DELTA.gram == ((0, 1), (1, 0))


@given(small_md)
def test_degrees_match_gram_squares(md_pair):
    m, d = md_pair
    assert fiber_degrees(m, d) == fiber_degrees_gram(m, d)


def test_degree_validation():
    with pytest.raises(ValueError):
        fiber_degrees(1, 1)  # md must exceed 1
    with pytest.raises(ValueError):
        fiber_degrees(0, 5)


def test_subsheaf_rank_example():
    profile = SubsheafProfile(1, 2, 1)
    assert subsheaf_rank(profile, 1, 9) == Fraction(13, 9)
    assert _subsheaf_rank_raw(profile, 9) == (26, 18)
    assert Fraction(*_subsheaf_rank_weighted_raw(profile, *fiber_degrees(1, 9))) == Fraction(13, 9)


def test_profile_validation():
    with pytest.raises(ValueError):
        SubsheafProfile(5, 0, 0)


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    small_md,
)
def test_subsheaf_rank_two_paths_agree(r1p, r1pp, r2, md_pair):
    m, d = md_pair
    profile = SubsheafProfile(r1p, r1pp, r2)
    num, den = _subsheaf_rank_raw(profile, m * d)
    w_num, w_den = _subsheaf_rank_weighted_raw(profile, *fiber_degrees(m, d))
    assert den > 0 and w_den > 0
    assert subsheaf_rank(profile, m, d) == Fraction(num, den) == Fraction(w_num, w_den)


def test_integer_rank_criterion_matches_denominator():
    # for odd md > 8 the rank is integral exactly when r1' + r1'' = 2 r2
    for md in (9, 11, 13, 21, 41):
        for r1p, r1pp, r2 in product(range(5), repeat=3):
            profile = SubsheafProfile(r1p, r1pp, r2)
            rank = subsheaf_rank(profile, 1, md)
            assert integer_rank_criterion(profile, 1, md) == (rank.denominator == 1)
            if integer_rank_criterion(profile, 1, md):
                assert rank == r2


def test_integer_rank_criterion_needs_large_md():
    with pytest.raises(ValueError):
        integer_rank_criterion(SubsheafProfile(1, 1, 1), 1, 8)


def test_destabilizer_profiles():
    profiles = destabilizer_profiles()
    assert len(profiles) == 7
    assert all(p.r1p + p.r1pp == 2 * p.r2 for p in profiles)
    assert all(p.r1p <= p.r1pp for p in profiles)
    ranks = [(p.r1p, p.r1pp, p.r2) for p in profiles]
    assert (0, 2, 1) in ranks
    assert (3, 3, 3) in ranks


def test_margin_values():
    assert destabilizer_margin(1, 2) == 3
    assert destabilizer_margin(1, 1) == 9
    assert destabilizer_margin(2, 4) == 3
    assert destabilizer_margin(2, 3) == 6
    assert destabilizer_margin(2, 2) == 9
    assert destabilizer_margin(3, 4) == 3
    assert destabilizer_margin(3, 3) == 5
    with pytest.raises(ValueError):
        destabilizer_margin(4, 4)


@pytest.mark.parametrize("r1pp", [-5, -1, 5, 99])
def test_margin_rejects_a_restriction_rank_outside_0_to_4(r1pp):
    # unchecked, (1, 99) gave -579 and (1, -5) gave 45
    with pytest.raises(ValueError):
        destabilizer_margin(1, r1pp)


def test_margin_accepts_the_ends_of_0_to_4():
    assert destabilizer_margin(1, 0) == 15
    assert destabilizer_margin(1, 4) == -9


def test_minimum_margin():
    assert minimum_destabilizer_margin() == 3
    attaining = [
        (p.r1p, p.r1pp, p.r2)
        for p in destabilizer_profiles()
        if destabilizer_margin(p.r2, p.r1pp) == 3
    ]
    assert attaining == [(0, 2, 1), (0, 4, 2), (2, 4, 3)]


def test_monodromy_group_order():
    group = monodromy_group(2)
    assert len(group) == 6
    assert ((1, 0), (0, 1)) in group
    assert ((0, 1), (1, 0)) in group


@pytest.mark.parametrize("n", range(2, 9))
def test_monodromy_group_is_s3_mod_n(n):
    # swap and shear are involutions whose product has order 3, so they
    # generate S3; S3 stays faithful mod n (its entries lie in {-1, 0, 1},
    # and mod 2 it is all of GL2(Z/2)), so the order is 6 at every level,
    # the 4-torsion of the coset claim included
    assert len(monodromy_group(n)) == 6


@pytest.mark.parametrize("n", [1, 0, -2])
def test_monodromy_group_rejects_a_level_below_2(n):
    # unchecked, n = 1 gave 2 elements, n = -2 gave 7 and n = 0 raised
    # ZeroDivisionError
    with pytest.raises(ValueError, match="n must be at least 2"):
        monodromy_group(n)


def test_monodromy_fixed_points_trivial():
    assert monodromy_fixed_points() == frozenset({((0, 0), (0, 0))})


def test_invariant_cosets_unique():
    cosets = invariant_torsion_cosets()
    assert len(cosets) == 1
    assert cosets[0] == trivial_torsion_coset()
    assert len(cosets[0]) == 16


@pytest.mark.parametrize("profiles", [[SubsheafProfile(1, 2, 1)], []], ids=["one", "none"])
@pytest.mark.parametrize("md", [0, -3, 1, 8])
def test_rank_failures_names_md(md, profiles):
    # unchecked, md 0 and -3 said "m and d must be positive integers", 1
    # "the fiber formulas need m*d > 1", 8 "the integrality criterion needs
    # m*d > 8" and, with no profiles, 2 ... 8 passed
    with pytest.raises(ValueError, match=r"^md must be an integer > 8$"):
        list(rank_failures(profiles, md))
