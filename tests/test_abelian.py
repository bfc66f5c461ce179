"""Semi-homogeneous bundle arithmetic: simplicity criteria, the top
self-intersection count with its exterior-algebra oracle, Jordan-Holder
shapes, and the saturated-model transfer."""

import time
from itertools import product
from math import factorial, gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hkverify.abelian import (
    forced_stable,
    forced_stable_via_jh,
    is_simple_semihom,
    is_simple_via_kernel,
    jh_decompositions,
    power_or_text,
    satollo_transfer,
    zeppola_integral,
    zeppola_oracle,
)
from hkverify.lattice import digit_limit
from hkverify.report import _FORCED_STABLE_FRAME, _SEMIHOM_FRAME


def _kernel_order(n, d0):
    """Order of the kernel of the polarization morphism, (n+1)^2 * d0^(2n),
    in full: the oracle for is_simple_via_kernel."""
    return (n + 1) ** 2 * d0 ** (2 * n)


def test_params_validation():
    # both criteria share one domain check, which names the first bad argument
    cases = [
        ((0, 2, 1), "deg_f must be a positive integer"),
        ((1, 0, 1), "n must be a positive integer"),
        ((1, 2, 0), "d0 must be a positive integer"),
        ((0, 0, 0), "deg_f must be a positive integer"),
        ((-3, 2, 1), "deg_f must be a positive integer"),
    ]
    for fn in (is_simple_semihom, is_simple_via_kernel):
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 2, -3), "n must be an integer >= 0"),
        ((0, 2, 3), "coeff must be an integer >= 1"),
        ((1, 0, 3), "base must be an integer >= 1"),
        ((-1, 2, 3), "coeff must be an integer >= 1"),
    ],
)
def test_power_or_text_rejects_out_of_range_arguments(args, message):
    # unchecked, (1, 2, -3) gave the float 0.125 and the others raised
    # "math domain error" from log10
    with pytest.raises(ValueError, match=f"^{message}$"):
        power_or_text(*args)


def test_power_or_text_edges():
    assert power_or_text(1, 2, 0) == 1
    assert power_or_text(5, 1, 10**9) == 5
    assert power_or_text(1, 10, digit_limit() - 1) == 10 ** (digit_limit() - 1)
    assert power_or_text(1, 10, digit_limit()) == f"10^{digit_limit()}"
    assert power_or_text(3, 10, digit_limit()) == f"3*10^{digit_limit()}"
    # 2^(3L) < 10^L: the last power of two within 3L bits takes the shortcut,
    # the next one the exact compare with 10^L, and both are returned whole
    three_l = 3 * digit_limit()
    assert power_or_text(1, 2, three_l - 1) == 2 ** (three_l - 1)
    assert power_or_text(1, 2, three_l) == 2**three_l


def test_power_or_text_takes_exponents_past_float_range():
    # n * log10(base) turned n into a float, which overflows past 10^308:
    # these raised OverflowError
    assert power_or_text(1, 2, 10**309) == f"2^{10**309}"
    assert power_or_text(5, 1, 10**400) == 5
    assert power_or_text(1, 1, 10 ** digit_limit()) == 1


def test_power_or_text_spells_a_coefficient_past_the_digit_limit():
    # the fiber count (n + 1) * d0^n has a coefficient one digit longer than
    # n when n is all nines; str() of such a coefficient raised ValueError
    ten_to_limit = f"1{'0' * digit_limit()}"
    assert power_or_text(10 ** digit_limit(), 1, 1) == f"{ten_to_limit}*1^1"
    n = 10 ** digit_limit() - 1
    assert power_or_text(n + 1, 2, n) == f"{ten_to_limit}*2^{'9' * digit_limit()}"


def test_simplicity_examples():
    assert is_simple_semihom(4, 2, 3) is True
    assert power_or_text(1, 4, 2) == 16
    assert is_simple_semihom(2, 1, 2) is False
    assert is_simple_semihom(7, 2, 3) is True
    assert power_or_text(1, 7, 2) == 49
    assert is_simple_semihom(6, 2, 3) is False
    assert is_simple_semihom(5, 2, 5) is False


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=20),
)
def test_simplicity_matches_kernel_coprimality(deg_f, n, d0):
    simple = is_simple_semihom(deg_f, n, d0)
    assert simple == (gcd(deg_f ** n, _kernel_order(n, d0)) == 1)
    assert simple == is_simple_via_kernel(deg_f, n, d0)
    assert power_or_text(1, deg_f, n) == deg_f ** n


def _prime_pattern(deg_f, n, d0):
    """The primes of deg_f that divide n + 1, and those that divide d0."""
    primes = [p for p in range(2, deg_f + 1) if deg_f % p == 0 and all(p % q for q in range(2, p))]
    return (
        tuple(p for p in primes if (n + 1) % p == 0),
        tuple(p for p in primes if d0 % p == 0),
    )


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=59),
    st.integers(min_value=1, max_value=59),
)
def test_simplicity_criteria_read_only_the_prime_pattern(deg_f, n, d0):
    # the reduction behind semihom-criteria-agree's frame: exactly one frame
    # case has deg_f and the prime pattern of (n, d0), and both criteria
    # take the same value there
    pattern = _prime_pattern(deg_f, n, d0)
    (case,) = [c for c in _SEMIHOM_FRAME if c[0] == deg_f and _prime_pattern(*c) == pattern]
    for criterion in (is_simple_semihom, is_simple_via_kernel):
        assert criterion(deg_f, n, d0) == criterion(*case)


def test_kernel_criterion_past_the_exponent_cut():
    # for n > deg_f.bit_length() the kernel order's d0 power is cut to that
    # bit length; the gcd with deg_f^n must not change
    for deg_f, n, d0 in product(range(1, 41), range(1, 13), range(1, 21)):
        expected = gcd(deg_f**n, _kernel_order(n, d0)) == 1
        assert is_simple_via_kernel(deg_f, n, d0) == expected, (deg_f, n, d0)


def test_kernel_criterion_is_fast_at_the_digit_limit():
    # the modular power d0^n mod deg_f at n and deg_f of 4300 digits took
    # about 8 s
    deg_f, n = int("19" * (digit_limit() // 2)), 10 ** digit_limit() - 1
    start = time.perf_counter()
    assert is_simple_via_kernel(deg_f, n, 11) == is_simple_semihom(deg_f, n, 11)
    assert time.perf_counter() - start < 1


def test_zeppola_values():
    assert zeppola_integral(1, 5) == 10
    assert zeppola_integral(2, 1) == 3
    assert zeppola_integral(3, 2) == 32
    assert zeppola_integral(2, 6) == 108


def test_zeppola_oracle_agrees():
    for n in (1, 2, 3):
        for d0 in range(1, 6):
            assert zeppola_oracle(n, d0) == zeppola_integral(n, d0)


def _wedge_insert(mono: tuple, g: int) -> tuple[tuple, int] | None:
    """Insert an odd generator into a sorted monomial, or None if repeated."""
    if g in mono:
        return None
    pos = 0
    while pos < len(mono) and mono[pos] < g:
        pos += 1
    sign = -1 if (len(mono) - pos) % 2 else 1
    return (mono[:pos] + (g,) + mono[pos:], sign)


def _zeppola_by_tuples(n: int, d0: int) -> int:
    """zeppola_oracle's expansion with each monomial a sorted tuple of
    generators and each sign counted by walking the tuple, not by bit
    counts on an int bitmask."""
    form = {(2 * i, 2 * j + 1): d0 * (2 if i == j else 1) for i in range(n) for j in range(n)}
    acc: dict[tuple, int] = {(): 1}
    for _ in range(n):
        nxt: dict[tuple, int] = {}
        for mono, ca in acc.items():
            for (g1, g2), cb in form.items():
                step1 = _wedge_insert(mono, g1)
                if step1 is None:
                    continue
                m1, s1 = step1
                step2 = _wedge_insert(m1, g2)
                if step2 is None:
                    continue
                m2, s2 = step2
                nxt[m2] = nxt.get(m2, 0) + ca * cb * s1 * s2
        acc = {k: v for k, v in nxt.items() if v}
    quotient, remainder = divmod(acc.get(tuple(range(2 * n)), 0), factorial(n))
    assert remainder == 0
    return quotient


def test_zeppola_bitmask_oracle_matches_the_tuple_expansion():
    for n in range(1, 5):
        for d0 in range(1, 7):
            assert zeppola_oracle(n, d0) == _zeppola_by_tuples(n, d0)


def test_zeppola_oracle_n4():
    assert zeppola_oracle(4, 1) == zeppola_integral(4, 1) == 5


def test_zeppola_validation():
    with pytest.raises(ValueError):
        zeppola_integral(0, 3)
    with pytest.raises(ValueError):
        zeppola_oracle(5, 1)


def test_jh_decompositions_example():
    assert jh_decompositions(4, 2, 3) == ((2, 1, 1),)


def test_jh_decompositions_with_common_factor():
    # e shares a factor with the rank, so a multiplicity-2 shape appears
    shapes = jh_decompositions(4, 2, 2)
    assert any(m > 1 for _, _, m in shapes)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_jh_shapes_resubstitute(r, a, e):
    for r0, b0, m in jh_decompositions(r, a, e):
        g = gcd(r0, e)
        assert m * r0 * r0 == r * g
        assert m * r0 * b0 == a * g
        assert gcd(r0, b0) == 1
        assert m >= 1


def _jh_decompositions_full_scan(r, a, e):
    # every r0 = 1..r, with no divisor pruning
    shapes = []
    for r0 in range(1, r + 1):
        g = gcd(r0, e)
        if (r * g) % (r0 * r0):
            continue
        m = r * g // (r0 * r0)
        if (a * g) % (m * r0):
            continue
        b0 = a * g // (m * r0)
        if gcd(r0, b0) == 1:
            shapes.append((r0, b0, m))
    return tuple(shapes)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_jh_decompositions_match_the_full_scan(r, a, e):
    assert jh_decompositions(r, a, e) == _jh_decompositions_full_scan(r, a, e)


def test_jh_decompositions_match_the_full_scan_on_squares():
    # the ranks r = s0^2 of forced-stable-two-paths, and every divisor shape
    for s0 in range(1, 13):
        for c0 in range(-12, 13):
            for e in range(1, 40):
                r, a = s0 * s0, s0 * c0
                assert jh_decompositions(r, a, e) == _jh_decompositions_full_scan(r, a, e)


def test_forced_stable_examples():
    assert forced_stable(2, 9, 3) is True
    assert forced_stable(2, 1, 2) is False
    assert forced_stable(3, 1, 6) is False
    assert forced_stable(5, 2, 6) is True


def test_forced_stable_rejects_common_factor():
    with pytest.raises(ValueError):
        forced_stable(2, 4, 3)


@pytest.mark.parametrize(
    "args", [(-1, 1, 1), (-2, 1, 3), (0, 1, 1), (1, 1, 0), (2, 1, -4), (0, 2, 3)]
)
@pytest.mark.parametrize("path", [forced_stable, forced_stable_via_jh], ids=["gcd", "jh"])
def test_both_stability_paths_reject_a_non_positive_rank_or_e(path, args):
    # both paths of forced-stable-two-paths share one domain, and the message
    # names the first argument out of it, before the coprime rule: (0, 2, 3)
    # said "s0 and c0 must be coprime"
    name = "s0" if args[0] < 1 else "e"
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
        path(*args)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=400),
)
def test_forced_stable_two_paths_agree(s0, c0, e):
    if gcd(s0, c0) != 1:
        c0 = c0 + 1 if gcd(s0, c0 + 1) == 1 else 1
    assert forced_stable(s0, c0, e) == forced_stable_via_jh(s0, c0, e)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=400),
)
def test_both_stability_paths_have_period_s0_in_c0_and_s0_squared_in_e(s0, c0, e):
    # the reduction behind forced-stable-two-paths' frame: each path takes
    # its value at c0 mod s0 in 1 ... s0 and (e - 1) mod s0^2 + 1, which is
    # a frame case when s0 <= 6
    assume(gcd(s0, c0) == 1)
    frame_case = (s0, (c0 - 1) % s0 + 1, (e - 1) % (s0 * s0) + 1)
    assert s0 > 6 or frame_case in _FORCED_STABLE_FRAME
    for path in (forced_stable, forced_stable_via_jh):
        assert path(s0, c0, e) == path(*frame_case)


def test_satollo_transfer_examples():
    model, divisors = satollo_transfer(1, 5)
    assert (model.self_omega, model.mixed_d, divisors) == (4, 5, (1, 2))
    model, divisors = satollo_transfer(2, 7)
    assert (model.self_omega, model.mixed_d, divisors) == (8, 7, (1, 4))


@pytest.mark.parametrize(
    "path, args, names",
    [
        (satollo_transfer, (0.5, 5), "abar and d"),
        (satollo_transfer, (1, 0.5), "abar and d"),
        (satollo_transfer, (1, 4.0), "abar and d"),
        (forced_stable, (1, 2, 0.5), "s0, c0 and e"),
        (forced_stable_via_jh, (1, 2, 0.5), "s0, c0 and e"),
        (forced_stable, (1.5, 2, 3), "s0, c0 and e"),
    ],
)
def test_a_float_is_a_type_error_that_names_the_arguments(path, args, names):
    # the types are checked before the ranges: unchecked, the first five
    # raised ValueError and forced_stable(1.5, 2, 3) failed inside gcd
    with pytest.raises(TypeError, match=f"^{names} must be integers$"):
        path(*args)


def test_satollo_transfer_requires_odd_d():
    with pytest.raises(ValueError):
        satollo_transfer(1, 4)
    with pytest.raises(ValueError):
        satollo_transfer(0, 5)

