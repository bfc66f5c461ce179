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
    AmplenessResult,
    MukaiVector,
    ample_thresholds,
    enumerate_wall_numerics,
    generate_wall_cases,
    is_ample_h,
    mukai_square,
)


def test_moduli_vector_square():
    assert (MODULI_VECTOR.r, MODULI_VECTOR.ell_sq, MODULI_VECTOR.s) == (1, 0, -3)
    assert mukai_square(MODULI_VECTOR) == 6


def test_mukai_vector_rejects_odd_square():
    with pytest.raises(ValueError):
        MukaiVector(1, 3, 0)


def test_wall_case_table():
    retained = enumerate_wall_numerics()
    table = [(w.ss, w.sv, w.n, w.q, tuple(sorted(w.div_candidates))) for w in retained]
    assert table == [
        (0, 1, 1, -6, (6,)),
        (0, 2, 2, -6, (3, 6)),
        (0, 3, 3, -6, (2, 6)),
        (2, 4, 2, -6, (3, 6)),
        (4, 5, 1, -6, (6,)),
    ]


def test_wall_case_discarded():
    discarded = [w for w in generate_wall_cases() if not w.retained]
    assert len(discarded) == 1
    w = discarded[0]
    assert (w.ss, w.sv) == (2, 3)
    assert w.q == 2  # nonnegative square, not a wall


def test_every_retained_wall_has_square_minus_six():
    for w in enumerate_wall_numerics():
        assert w.q == -6
        assert w.div_candidates <= {1, 2, 3, 6}
        assert all(d % (6 // w.n) == 0 for d in w.div_candidates)


def test_ample_thresholds():
    assert ample_thresholds(1) == (15, 30)
    assert ample_thresholds(2) == (27, 108)
    assert ample_thresholds(3) == (39, 234)


def test_ampleness_verdicts():
    assert is_ample_h(1, 31, 1).render() == "Ample"
    assert is_ample_h(2, 109, 1).render() == "Ample"
    assert is_ample_h(1, 15, 1).render() == "Ample (below certified threshold d <= 30)"
    result = is_ample_h(1, 3, 1)
    assert result.verdict == "not-ample"
    assert result.witness.coeffs() == (0, 1, -1)
    assert result.render() == "NotAmple (witness 0,1,-1)"


def test_ampleness_thresholds_attached_to_result():
    result = is_ample_h(1, 31, 1)
    assert result.separating_threshold == 30
    assert not result.below_threshold
    assert is_ample_h(1, 30, 1).below_threshold


def test_ampleness_validation():
    with pytest.raises(ValueError):
        is_ample_h(0, 3, 1)
    with pytest.raises(ValueError):
        is_ample_h(1, 3, 0)


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
    _, separating_thr = ample_thresholds(abar)
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
    return AmplenessResult(
        "ample" if witness is None else "not-ample",
        witness,
        separating_thr,
        d <= separating_thr,
    )


def test_ampleness_matches_the_reference_search():
    # every d up to 200 past the separating threshold, as in the sweep-grid
    # configuration, plus every small d below it
    for abar in range(1, 9):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            for d in range(1, sep + 201):
                expected = _is_ample_h_reference(abar, d, m)
                got = is_ample_h(abar, d, m)
                fields = AmplenessResult.__slots__
                assert [getattr(got, f) for f in fields] == [
                    getattr(expected, f) for f in fields
                ], (abar, d, m)
                assert got.render() == expected.render()


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=3),
)
def test_ampleness_search_stays_inside_box(abar, d, m):
    # witnesses, when they exist, are certified: square and pairing checked
    result = is_ample_h(abar, d, m)
    assert result.verdict in ("ample", "not-ample")
    if result.witness is not None:
        p, q, x = result.witness.coeffs()
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
        assert is_ample_h(abar, d, m).verdict == "ample"


def test_result_render_shapes():
    ample = AmplenessResult("ample", None, 30, False)
    assert ample.render() == "Ample"
    hedged = AmplenessResult("ample", None, 30, True)
    assert "below certified threshold" in hedged.render()
