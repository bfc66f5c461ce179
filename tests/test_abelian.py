"""Semi-homogeneous bundle arithmetic: simplicity criteria, the top
self-intersection count with its exterior-algebra oracle, Jordan-Holder
shapes, and the saturated-model transfer."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkverify.abelian import (
    IsogenyParams,
    JHShape,
    forced_stable,
    forced_stable_via_jh,
    is_simple_semihom,
    jh_decompositions,
    kernel_order,
    satollo_transfer,
    zeppola_integral,
    zeppola_oracle,
)


def test_kernel_order():
    assert kernel_order(IsogenyParams(1, 2, 1)) == 9
    assert kernel_order(IsogenyParams(7, 2, 3)) == 9 * 81
    assert kernel_order(IsogenyParams(5, 1, 4)) == 64


def test_params_validation():
    with pytest.raises(ValueError):
        IsogenyParams(0, 2, 1)
    with pytest.raises(ValueError):
        IsogenyParams(1, 2, 0)


def test_simplicity_examples():
    assert is_simple_semihom(IsogenyParams(4, 2, 3)) == (True, 16)
    assert is_simple_semihom(IsogenyParams(2, 1, 2)) == (False, None)
    assert is_simple_semihom(IsogenyParams(7, 2, 3)) == (True, 49)
    assert is_simple_semihom(IsogenyParams(6, 2, 3)) == (False, None)
    assert is_simple_semihom(IsogenyParams(5, 2, 5)) == (False, None)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=20),
)
def test_simplicity_matches_kernel_coprimality(deg_f, n, d0):
    params = IsogenyParams(deg_f, n, d0)
    simple, rank = is_simple_semihom(params)
    assert simple == (gcd(deg_f ** n, kernel_order(params)) == 1)
    if simple:
        assert rank == deg_f ** n
    else:
        assert rank is None


def test_zeppola_values():
    assert zeppola_integral(1, 5) == 10
    assert zeppola_integral(2, 1) == 3
    assert zeppola_integral(3, 2) == 32
    assert zeppola_integral(2, 6) == 108


def test_zeppola_oracle_agrees():
    for n in (1, 2, 3):
        for d0 in range(1, 6):
            assert zeppola_oracle(n, d0) == zeppola_integral(n, d0)


def test_zeppola_oracle_n4():
    assert zeppola_oracle(4, 1) == zeppola_integral(4, 1) == 5


def test_zeppola_validation():
    with pytest.raises(ValueError):
        zeppola_integral(0, 3)
    with pytest.raises(ValueError):
        zeppola_oracle(5, 1)


def test_jh_shape_validation():
    JHShape(2, 1, 1)
    with pytest.raises(ValueError):
        JHShape(2, 4, 1)  # not coprime
    with pytest.raises(ValueError):
        JHShape(2, 1, 0)


def test_jh_decompositions_example():
    shapes = jh_decompositions(4, 2, 3)
    assert [(s.r0, s.b0, s.m) for s in shapes] == [(2, 1, 1)]


def test_jh_decompositions_with_common_factor():
    # e shares a factor with the rank, so a multiplicity-2 shape appears
    shapes = jh_decompositions(4, 2, 2)
    assert any(s.m > 1 for s in shapes)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_jh_shapes_resubstitute(r, a, e):
    for shape in jh_decompositions(r, a, e):
        g = gcd(shape.r0, e)
        assert shape.m * shape.r0 * shape.r0 == r * g
        assert shape.m * shape.r0 * shape.b0 == a * g
        assert gcd(shape.r0, shape.b0) == 1


def test_forced_stable_examples():
    assert forced_stable(2, 9, 3) is True
    assert forced_stable(2, 1, 2) is False
    assert forced_stable(3, 1, 6) is False
    assert forced_stable(5, 2, 6) is True


def test_forced_stable_rejects_common_factor():
    with pytest.raises(ValueError):
        forced_stable(2, 4, 3)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=30),
)
def test_forced_stable_two_paths_agree(s0, c0, e):
    if gcd(s0, c0) != 1:
        c0 = c0 + 1 if gcd(s0, c0 + 1) == 1 else 1
    assert forced_stable(s0, c0, e) == forced_stable_via_jh(s0, c0, e)


def test_satollo_transfer_examples():
    sat = satollo_transfer(1, 5)
    assert (sat.model.self_omega, sat.model.mixed_d) == (4, 5)
    assert sat.elementary_divisors == (1, 2)
    sat2 = satollo_transfer(2, 7)
    assert sat2.model.self_omega == 8
    assert sat2.elementary_divisors == (1, 4)


def test_satollo_transfer_requires_odd_d():
    with pytest.raises(ValueError):
        satollo_transfer(1, 4)
    with pytest.raises(ValueError):
        satollo_transfer(0, 5)

