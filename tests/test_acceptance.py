"""Acceptance gate: every recorded numeric claim is recomputed here from
scratch, one criterion per test, so `pytest -v` prints one pass/fail line
for each. No criterion may consult the report module's own bookkeeping;
everything is recomputed from the calculators."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import sympy

from hkverify.abelian import (
    forced_stable,
    forced_stable_via_jh,
    is_simple_semihom,
    is_simple_via_kernel,
    jh_decompositions,
    zeppola_integral,
    zeppola_oracle,
)
from hkverify.blowup import (
    XTwoClass,
    ch1_bundle,
    ch2_pairing,
    delta_pairing_closed,
    exceptional_class,
    is_modular_bundle,
    pullback_correspondence,
    quartic_chain,
    x_quartic,
)
from hkverify.chern import (
    ch1_ch3,
    ch1_fourth,
    ch1sq_c2,
    ch1sq_ch2_derived,
    ch1sq_ch2_stated,
    ch2_squared,
    ch4_integral,
    chi_end,
    chi_end_decomposition,
    chi_end_traceless,
)
from hkverify.fiber import (
    SubsheafProfile,
    destabilizer_margin,
    destabilizer_profiles,
    fiber_degrees,
    fiber_degrees_gram,
    integer_rank_criterion,
    invariant_torsion_cosets,
    minimum_destabilizer_margin,
    monodromy_fixed_points,
    subsheaf_rank,
    trivial_torsion_coset,
)
from hkverify.kummer import (
    C2_SQUARE_VALUE,
    KummerTwoClass,
    basis,
    c2_pair,
    fujiki_integral,
    fujiki_symmetrized,
    modularity_coefficient,
)
from hkverify.lattice import AbelianSurfaceModel
from hkverify.walls import ample_thresholds, generate_wall_cases, is_ample_h


def _in_sympy(poly):
    """A Chern entry as a sympy polynomial in a, so that combinations of
    entries are expanded by sympy, not by Poly."""
    a = sympy.symbols("a")
    return sum(sympy.Rational(c.numerator, c.denominator) * a**k for k, c in enumerate(poly.coeffs))


def _random_class(rng, model):
    return KummerTwoClass(
        model,
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
    )


def test_criterion_chi_end_is_constant_three():
    # whole-endomorphism Euler characteristic: 3 as a polynomial identity
    # and for every a up to 50, with the decomposition (48, -63, 18) and
    # traceless part 0
    assert _in_sympy(chi_end) - 3 == 0
    assert _in_sympy(chi_end_traceless) == 0
    for a in range(1, 51):
        assert chi_end(a) == 3
        assert chi_end_traceless(a) == 0
        parts = tuple(p(a) for p in chi_end_decomposition)
        assert parts == (48, -63, 18)
        assert sum(parts) == 3


def test_criterion_modularity_window_and_coefficient():
    # the discriminant is proportional to the quadratic form exactly for
    # t = x - y in {0, -1}, with coefficient 54, and then agrees with c2
    # on every basis pair, for every small model
    for t in range(-10, 11):
        modular, coeff = is_modular_bundle(t, AbelianSurfaceModel(4, 3))
        assert modular == (t in (0, -1))
        assert coeff == (54 if modular else None)
    for abar in (1, 2, 3):
        for d in range(3, 22, 2):
            model = AbelianSurfaceModel(4 * abar, d)
            es = basis(model)
            for x, y in ((0, 0), (1, 2), (5, 5), (0, 1), (3, 4)):

                def delta(a, b):
                    return delta_pairing_closed(x - y, a, b)

                assert modularity_coefficient(delta, model) == 54
                for a, b in product(es, es):
                    assert delta(a, b) == c2_pair(a, b)


def test_criterion_quartic_form_against_symmetrized_oracle():
    # the three-matching quartic form equals the full 24-permutation
    # average on 100 seeded random quadruples, and reproduces the two
    # closed integrals delta^4 = 324 and c2^2 = 756
    rng = random.Random(20260825)
    model = AbelianSurfaceModel(4, 5)
    for _ in range(100):
        cs = [_random_class(rng, model) for _ in range(4)]
        assert fujiki_integral(*cs) == fujiki_symmetrized(*cs)
    delta = KummerTwoClass(model, 0, 0, 1)
    assert fujiki_integral(delta, delta, delta, delta) == 324
    assert C2_SQUARE_VALUE == 756


def test_criterion_wall_enumeration():
    # exactly five retained wall cases, every one of square -6 with
    # divisibilities among {2, 3, 6}; the single discarded case is
    # (ss, sv) = (2, 3) with square +2
    retained = [w for w in generate_wall_cases() if w[3] < 0]
    assert len(retained) == 5
    assert [(ss, sv) for ss, sv, _, _, _ in retained] == [(0, 1), (0, 2), (0, 3), (2, 4), (4, 5)]
    for _, _, _, q, divs in retained:
        assert q == -6
        assert divs <= {2, 3, 6}
    discarded = [w for w in generate_wall_cases() if w[3] >= 0]
    assert [(ss, sv, q) for ss, sv, _, q, _ in discarded] == [(2, 3, 2)]


def test_criterion_ampleness_beyond_threshold():
    # h = 2m*mu(omegabar) - delta is ample for every odd d beyond the
    # separating threshold 24 abar^2 + 6 abar, for abar, m in {1, 2, 3}
    for abar in (1, 2, 3):
        _, sep = ample_thresholds(abar)
        for m in (1, 2, 3):
            start = sep + 1 if sep % 2 == 0 else sep + 2
            for d in range(start, sep + 201, 2):
                assert is_ample_h(abar, d, m) is None


def test_criterion_blowup_quartic_calculus():
    # the X quartic is 4 times the doubled-model quartic on 50 seeded
    # random pullback quadruples; int D^4 = 162; and the chain of
    # non-vanishing terms in (1/4)(pulled-back delta + D)^4 is
    # (81, (3/2)*81, 81) before the D^4 contribution
    rng = random.Random(20260825)
    big = AbelianSurfaceModel(4, 5)
    for _ in range(50):
        cs = [_random_class(rng, big) for _ in range(4)]
        pbs = [pullback_correspondence(c) for c in cs]
        assert x_quartic(*pbs) == 4 * fujiki_integral(*cs)
    small = AbelianSurfaceModel(2, 5)
    d = exceptional_class(small)
    assert x_quartic(d, d, d, d) == 162
    chain = quartic_chain(small)
    assert chain[:3] == (81, Fraction(3, 2) * 81, 81)
    assert sum(chain) == 324


def test_criterion_chern_number_identities_and_lone_discrepancy(default_report):
    # the Hirzebruch combination 8 ch4 - 2 ch1.ch3 + ch2^2 equals 18, the
    # Chern numbers that the intersection calculus on X also computes agree
    # with it for h = ch1 of the bundle from pullback(mu(omegabar)) on the
    # halved model (2a, d), and the recorded ch1^2.ch2 is the unique
    # recomputation mismatch
    assert ch1sq_ch2_stated - ch1sq_ch2_derived != 0
    assert sympy.expand(
        8 * _in_sympy(ch4_integral) - 2 * _in_sympy(ch1_ch3) + _in_sympy(ch2_squared) - 18
    ) == 0
    for a in range(1, 51):
        assert 8 * ch4_integral(a) - 2 * ch1_ch3(a) + ch2_squared(a) == 18
        assert ch1sq_ch2_stated(a) != ch1sq_ch2_derived(a)
        for d in (1, 5, 7):
            line = XTwoClass(KummerTwoClass(AbelianSurfaceModel(2 * a, d), 1, 0, 0), 0)
            h = ch1_bundle(line)
            assert fujiki_integral(h, h, h, h) == ch1_fourth(a)
            assert c2_pair(h, h) == ch1sq_c2(a)
            assert ch2_pairing(line, h, h) == ch1sq_ch2_derived(a)
    discrepancies = [r for r in default_report.records if r.verdict == "discrepancy"]
    assert [r.claim_id for r in discrepancies] == ["chern-ch1sq-ch2"]
    assert discrepancies[0].stated == "576*a**2 - 540*a + 81"
    assert discrepancies[0].computed == "288*a**2 - 324*a + 81"
    assert not any(r.verdict == "fail" for r in default_report.records)


def test_criterion_fiber_restriction_numerics():
    # component degrees match their Gram recomputation on a 10x10 grid;
    # for odd md > 8 the forced rank is integral exactly when
    # r1' + r1'' = 2 r2; and the destabilizer margin table has minimum 3
    for m in range(1, 11):
        for d in range(1, 11):
            if m * d <= 1:
                continue
            assert fiber_degrees(m, d) == fiber_degrees_gram(m, d)
    for md in range(9, 42, 2):
        for r1p, r1pp, r2 in product(range(5), repeat=3):
            profile = SubsheafProfile(r1p, r1pp, r2)
            rank = subsheaf_rank(profile, 1, md)
            assert integer_rank_criterion(profile, 1, md) == (rank.denominator == 1)
    margins = [destabilizer_margin(p.r2, p.r1pp) for p in destabilizer_profiles()]
    assert len(margins) == 7
    assert min(margins) == 3 == minimum_destabilizer_margin()
    assert all(margin > 0 for margin in margins)


def test_criterion_monodromy_torsion_counts():
    # the only common fixed 2-torsion point is zero, and the only
    # invariant 2-torsion coset among the 16 in the 4-torsion model is
    # the trivial one
    assert monodromy_fixed_points() == frozenset({((0, 0), (0, 0))})
    cosets = invariant_torsion_cosets()
    assert len(cosets) == 1
    assert cosets[0] == trivial_torsion_coset()


def test_criterion_semihomogeneous_arithmetic():
    # the closed count (n+1) d0^n matches the exterior-algebra oracle;
    # the gcd simplicity criterion matches coprimality with the kernel
    # order (n+1)^2 d0^(2n); and
    # forced stability matches the all-multiplicities-one reading of the
    # Jordan-Holder shapes
    for n in (1, 2, 3):
        for d0 in range(1, 6):
            assert zeppola_oracle(n, d0) == zeppola_integral(n, d0)
    for deg_f in range(1, 21):
        for n in (1, 2, 3):
            for d0 in range(1, 21):
                simple = is_simple_semihom(deg_f, n, d0)
                assert simple == (gcd(deg_f ** n, (n + 1) ** 2 * d0 ** (2 * n)) == 1)
                assert simple == is_simple_via_kernel(deg_f, n, d0)
    for s0 in range(1, 7):
        for c0 in range(1, 12):
            if gcd(s0, c0) != 1:
                continue
            for e in range(1, 31):
                via_gcd = forced_stable(s0, c0, e)
                assert via_gcd == forced_stable_via_jh(s0, c0, e)
                shapes = jh_decompositions(s0 * s0, s0 * c0, e)
                assert via_gcd == all(m == 1 for _, _, m in shapes)
