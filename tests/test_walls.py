"""Wall numerics for the moduli vector and the ampleness decision for the
family of polarizations h = 2m*mu(omegabar) - delta."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkverify.kummer import KummerTwoClass
from hkverify.lattice import AbelianSurfaceModel
from hkverify.walls import (
    MODULI_VECTOR,
    ample_thresholds,
    ampleness_text,
    generate_wall_cases,
    is_ample_h,
    mukai_square,
)


def _retained():
    return [w for w in generate_wall_cases() if w[3] < 0]


def test_moduli_vector_square():
    assert MODULI_VECTOR == (1, 0, -3)
    assert mukai_square(*MODULI_VECTOR) == 6


def test_wall_case_table():
    table = [(ss, sv, n, q, tuple(sorted(divs))) for ss, sv, n, q, divs in _retained()]
    assert table == [
        (0, 1, 1, -6, (6,)),
        (0, 2, 2, -6, (3, 6)),
        (0, 3, 3, -6, (2, 6)),
        (2, 4, 2, -6, (3, 6)),
        (4, 5, 1, -6, (6,)),
    ]


def test_wall_case_discarded():
    discarded = [w for w in generate_wall_cases() if w[3] >= 0]
    assert len(discarded) == 1
    ss, sv, _, q, _ = discarded[0]
    assert (ss, sv) == (2, 3)
    assert q == 2  # nonnegative square, not a wall


def test_every_retained_wall_has_square_minus_six():
    for _, _, n, q, divs in _retained():
        assert q == -6
        assert divs <= {1, 2, 3, 6}
        assert all(d % (6 // n) == 0 for d in divs)


def test_ample_thresholds():
    assert ample_thresholds(1) == (15, 30)
    assert ample_thresholds(2) == (27, 108)
    assert ample_thresholds(3) == (39, 234)


@pytest.mark.parametrize("abar", [0, -2])
def test_ample_thresholds_rejects_non_positive_abar(abar):
    # the polarization square 4 abar must be positive, as in is_ample_h
    with pytest.raises(ValueError, match="abar"):
        ample_thresholds(abar)


def test_ampleness_verdicts():
    assert ampleness_text(1, 31, 1) == "Ample"
    assert ampleness_text(2, 109, 1) == "Ample"
    assert ampleness_text(1, 15, 1) == "Ample (below certified threshold d <= 30)"
    witness = is_ample_h(1, 3, 1)
    assert witness.model == AbelianSurfaceModel(4, 3)
    assert witness.coeffs() == (0, 1, -1)
    assert ampleness_text(1, 3, 1) == "NotAmple (witness 0,1,-1)"


def test_ampleness_thresholds_attached_to_result():
    # the separating threshold 24 abar^2 + 6 abar = 30 at abar = 1 is shown
    # up to and including d = 30, and not past it
    assert is_ample_h(1, 31, 1) is None
    assert ampleness_text(1, 31, 1) == "Ample"
    assert is_ample_h(1, 30, 1) is None
    assert ampleness_text(1, 30, 1) == "Ample (below certified threshold d <= 30)"


def test_ampleness_validation():
    with pytest.raises(ValueError):
        is_ample_h(0, 3, 1)
    with pytest.raises(ValueError):
        is_ample_h(1, 3, 0)
    with pytest.raises(ValueError):
        ampleness_text(0, 3, 1)


@pytest.mark.parametrize(
    "abar, d, m",
    [(1.5, 3, 1), (1, 2.0, 1), (1, 31.0, 1), (1.0, 31, 1), (Fraction(3, 2), 101, 1)],
)
def test_ampleness_rejects_non_integers(abar, d, m):
    # the model is built only for a witness; the last three find none, so
    # only the up-front check rejects them
    with pytest.raises(TypeError):
        is_ample_h(abar, d, m)


@pytest.mark.parametrize("m", [2.5, 1.0, Fraction(3, 2)])
def test_ampleness_rejects_non_integer_m(m):
    # h = 2m mu(omegabar) - delta is no class for m = 2.5; unchecked, that m
    # answered "Ample (below certified threshold d <= 30)"
    with pytest.raises(TypeError):
        is_ample_h(1, 3, m)


def _is_ample_h_reference(abar, d, m):
    # the search as it was written with the model built up front and a
    # helper solving the pairing equation for q
    model = AbelianSurfaceModel(4 * abar, d)
    witness = None

    def beta_from(c, p):
        num = c - 4 * abar * p
        if num % d:
            return None
        return (p, num // d)

    for p in range(-2, 3):
        got = beta_from(0, p)
        if got is None or got == (0, 0):
            continue
        p0, q0 = got
        if 4 * abar * p0 * p0 + 2 * p0 * q0 * d == -6:
            assert abs(p0) < 2
            witness = KummerTwoClass(model, p0, q0, 0)
            break
    if witness is None:
        for c in (1, 2, 3):
            if m * c > 3:
                continue
            for p in range(-2, 3):
                got = beta_from(c, p)
                if got is None:
                    continue
                p0, q0 = got
                if 4 * abar * p0 * p0 + 2 * p0 * q0 * d in (0, 2):
                    assert abs(p0) < 2
                    witness = KummerTwoClass(model, p0, q0, -1)
                    break
            if witness is not None:
                break
    return witness


def _ampleness_text_reference(abar, d, m):
    witness = _is_ample_h_reference(abar, d, m)
    if witness is not None:
        return "NotAmple (witness {},{},{})".format(*witness.coeffs())
    _, separating_thr = ample_thresholds(abar)
    if d <= separating_thr:
        return f"Ample (below certified threshold d <= {separating_thr})"
    return "Ample"


def test_ampleness_matches_the_reference_search():
    # every d up to 200 past the separating threshold, as in the sweep-grid
    # configuration, plus every small d below it
    for abar in range(1, 9):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            for d in range(1, sep + 201):
                assert is_ample_h(abar, d, m) == _is_ample_h_reference(abar, d, m), (abar, d, m)
                assert ampleness_text(abar, d, m) == _ampleness_text_reference(abar, d, m)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=3),
)
def test_ampleness_search_stays_inside_box(abar, d, m):
    # witnesses, when they exist, are certified: square and pairing checked
    witness = is_ample_h(abar, d, m)
    if witness is not None:
        p, q, x = witness.coeffs()
        assert abs(p) <= 1
        beta_sq = 4 * abar * p * p + 2 * p * q * d
        if x == 0:
            assert beta_sq == -6
        else:
            assert x == -1
            assert beta_sq in (0, 2)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_large_odd_d_is_ample(abar, m):
    _, sep = ample_thresholds(abar)
    for d in range(sep + 1, sep + 20, 2):
        assert is_ample_h(abar, d, m) is None
