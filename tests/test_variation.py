"""Classification of the canonical variation against closed forms and a
sign-scan oracle.

The reference instants come from `conftest.brute_force_instants`, which
never touches the package's cleared-polynomial route, and from hand
solutions of s(t)/(m-1) = b + lam/t for each family.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cscbif
from cscbif import variation
from cscbif.errors import (
    DegeneratePointError,
    InconclusiveError,
    InvalidArgumentError,
    NondiscreteDegeneracyError,
    NotApplicableError,
    PreconditionError,
    ZeroScalarCurvatureError,
)

from conftest import ablated_nondiscrete_families, brute_force_instants


# ---------------------------------------------------------------------------
# scalar curvature along the variation


def test_scalar_curvature_product(circle_sphere):
    # s_h = 0, s_g = 2, |A| = 0: s(t) = 2/t
    assert variation.scalar_curvature(circle_sphere, Fraction(1, 3)) == 6
    assert variation.scalar_curvature(circle_sphere, 2) == 1


def test_scalar_curvature_curved(hopf_family):
    # s(t) = 48 + 6/t - 12 t
    assert variation.scalar_curvature(hopf_family, 1) == 42
    assert variation.scalar_curvature(hopf_family, Fraction(1, 4)) == 69


def test_scalar_curvature_rejects_nonpositive_t(circle_sphere):
    with pytest.raises(InvalidArgumentError):
        variation.scalar_curvature(circle_sphere, 0)
    with pytest.raises(InvalidArgumentError):
        variation.scalar_curvature(circle_sphere, Fraction(-1, 2))


@given(
    t_lo=st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=40),
    gap=st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=40),
)
@settings(max_examples=40, deadline=None)
def test_scalar_curvature_strictly_decreasing(t_lo, gap):
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.sphere_manifold(1, Fraction(1)),
    )
    assert variation.scalar_curvature(fam, t_lo) > variation.scalar_curvature(
        fam, t_lo + gap
    )


# ---------------------------------------------------------------------------
# per-pair degeneracy roots


def test_roots_linear_case(circle_sphere):
    rr = variation.degeneracy_roots(circle_sphere, 1, 0)
    assert rr.roots == (Fraction(1),)
    assert not rr.all_positive


def test_roots_no_root(circle_sphere):
    # fiber-only pair: 2 (m-1) lam - s_g = 2 never vanishes
    assert variation.degeneracy_roots(circle_sphere, 0, 2).no_root


def test_roots_trivial_pair(circle_sphere):
    assert variation.degeneracy_roots(circle_sphere, 0, 0).no_root


def test_roots_all_positive(nondiscrete_family):
    rr = variation.degeneracy_roots(nondiscrete_family, 2, 2)
    assert rr.all_positive
    assert rr.roots == ()


def test_roots_quadratic_exact():
    # m = 4, s_h = 6, s_g = 1, |A|^2 = 1, pair (1, 1):
    # t^2 + (3 - 6) t + (3 - 1) = (t - 1)(t - 2)
    base = cscbif.explicit_manifold("b", 2, 6, [(0, 1), (1, 2)], 10)
    fiber = cscbif.explicit_manifold("f", 2, 1, [(0, 1), (1, 1)], 10)
    fam = variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=1,
        joint_mode=variation.ExplicitJoint([(0, 0, 1), (1, 1, 2)]),
    )
    rr = variation.degeneracy_roots(fam, 1, 1)
    assert rr.roots == (Fraction(1), Fraction(2))
    assert all(isinstance(r, Fraction) for r in rr.roots)


def test_roots_quadratic_irrational(hopf_family):
    # 12 t^2 + 48 t - 6 = 0, positive root (3 sqrt(2) - 4) / 2
    rr = variation.degeneracy_roots(hopf_family, 16, 0)
    assert len(rr.roots) == 1
    assert rr.roots[0] == pytest.approx((3 * math.sqrt(2) - 4) / 2, abs=1e-12)


def test_roots_sorted_positive(hopf_family, circle_sphere):
    for fam, pairs in [
        (hopf_family, [(0, 0), (4, 3), (16, 0), (72, 0)]),
        (circle_sphere, [(1, 0), (4, 0), (0, 2), (1, 2)]),
    ]:
        for b, lam in pairs:
            rr = variation.degeneracy_roots(fam, b, lam)
            assert len(rr.roots) <= 2
            assert list(rr.roots) == sorted(rr.roots)
            assert all(r > 0 for r in rr.roots)


# ---------------------------------------------------------------------------
# windowed enumeration against the sign-scan oracle

CS_WINDOW = (Fraction(1, 1000), Fraction(2))
WIDE_WINDOW = (Fraction(3, 10), Fraction(9))
SS_WINDOW = (Fraction(1, 50), Fraction(3))
HOPF_WINDOW = (Fraction(1, 100), Fraction(6, 25))


def _oracle_pairs_circle_sphere():
    return [
        (Fraction(j * j), Fraction(l * (l + 1))) for j in range(33) for l in range(5)
    ]


def _oracle_pairs_wide():
    return [
        (Fraction(j * j, 4), Fraction(l * (l + 2)))
        for j in range(9)
        for l in range(4)
    ]


def _oracle_pairs_sphere_sphere():
    return [
        (Fraction(i * (i + 1)), Fraction(l * (l + 1)))
        for i in range(8)
        for l in range(8)
    ]


def _check_against_oracle(fam, pairs, window):
    instants = variation.enumerate_degeneracy(fam, *window)
    reference = brute_force_instants(fam, pairs, *window)
    got = sorted(float(i.t) for i in instants)
    assert len(got) == len(reference), (got, reference)
    for g, r in zip(got, reference):
        assert abs(g - r) < 1e-6


def test_enumeration_matches_oracle_circle_sphere(circle_sphere):
    _check_against_oracle(circle_sphere, _oracle_pairs_circle_sphere(), CS_WINDOW)


def test_enumeration_matches_oracle_wide(wide_circle_sphere3):
    _check_against_oracle(wide_circle_sphere3, _oracle_pairs_wide(), WIDE_WINDOW)


def test_enumeration_matches_oracle_sphere_sphere(sphere_sphere):
    _check_against_oracle(sphere_sphere, _oracle_pairs_sphere_sphere(), SS_WINDOW)


def test_enumeration_matches_oracle_hopf(hopf_family):
    pairs = [(p.horizontal, p.fiber) for p in hopf_family.joint_mode.pairs]
    _check_against_oracle(hopf_family, pairs, HOPF_WINDOW)


def test_circle_sphere_instants_exact(circle_sphere):
    instants = variation.enumerate_degeneracy(circle_sphere, *CS_WINDOW)
    assert [i.t for i in instants] == [Fraction(1, j * j) for j in range(31, 0, -1)]
    assert all(i.horizontal for i in instants)


def test_wide_instants_exact(wide_circle_sphere3):
    instants = variation.enumerate_degeneracy(wide_circle_sphere3, *WIDE_WINDOW)
    assert [i.t for i in instants] == [Fraction(8, j * j) for j in range(5, 0, -1)]


def test_sphere_sphere_instants_exact(sphere_sphere):
    # horizontal at 2/(3b - 2) for base eigenvalues b and one vertical
    # instant at t = 2 with witness (0, 2)
    instants = variation.enumerate_degeneracy(sphere_sphere, *SS_WINDOW)
    expected = [Fraction(2, 3 * b - 2) for b in (30, 20, 12, 6, 2)] + [Fraction(2)]
    assert [i.t for i in instants] == expected
    vertical = instants[-1]
    assert not vertical.horizontal
    assert vertical.witnesses == ((Fraction(0), Fraction(2)),)
    assert all(i.horizontal for i in instants[:-1])


def test_enumeration_respects_half_open_window(circle_sphere):
    # (1/4, 1] keeps t = 1, drops the left endpoint t = 1/4
    instants = variation.enumerate_degeneracy(circle_sphere, Fraction(1, 4), 1)
    assert [i.t for i in instants] == [Fraction(1)]


def test_horizontal_enumeration_is_the_horizontal_subset(sphere_sphere):
    full = variation.enumerate_degeneracy(sphere_sphere, *SS_WINDOW)
    horizontal = variation.enumerate_horizontal_degeneracy(sphere_sphere, *SS_WINDOW)
    assert [i.t for i in horizontal] == [i.t for i in full if i.horizontal]


def test_window_validation(circle_sphere):
    with pytest.raises(InvalidArgumentError):
        variation.enumerate_degeneracy(circle_sphere, 1, 1)
    with pytest.raises(InvalidArgumentError):
        variation.enumerate_degeneracy(circle_sphere, -1, 1)


def test_nondiscrete_enumeration_raises(nondiscrete_family):
    with pytest.raises(NondiscreteDegeneracyError) as info:
        variation.enumerate_degeneracy(nondiscrete_family, Fraction(1, 10), 3)
    assert info.value.witness == (Fraction(2), Fraction(2))


# ---------------------------------------------------------------------------
# the decreasing horizontal sequence and Morse indices


def test_b_sequence_circle_sphere(circle_sphere):
    seq = variation.b_sequence(circle_sphere, 6)
    assert seq == [Fraction(1, j * j) for j in range(1, 7)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_b_sequence_limit_zero(circle_sphere):
    seq = variation.b_sequence(circle_sphere, 40)
    assert seq[-1] < Fraction(1, 1500)


def test_b_sequence_needs_positive_fiber_curvature():
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(1, Fraction(1)),
        base=cscbif.sphere_manifold(2, Fraction(1)),
    )
    with pytest.raises(PreconditionError):
        variation.b_sequence(fam, 3)


def test_morse_index_values(circle_sphere):
    assert variation.morse_index(circle_sphere, Fraction(9, 10)) == 3
    assert variation.morse_index(circle_sphere, Fraction(11, 10)) == 1
    # just inside the j = 2 instant
    assert variation.morse_index(circle_sphere, Fraction(24, 100)) == 5


def test_morse_index_at_instant_raises(circle_sphere):
    with pytest.raises(DegeneratePointError):
        variation.morse_index(circle_sphere, 1)
    with pytest.raises(DegeneratePointError):
        variation.morse_index(circle_sphere, Fraction(1, 4))


def test_morse_index_zero_for_nonpositive_curvature():
    base = cscbif.explicit_manifold("b", 2, 1, [(0, 1), (1, 2)], 10)
    fiber = cscbif.explicit_manifold("f", 2, 2, [(0, 1), (3, 1)], 10)
    fam = variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=1,
        joint_mode=variation.ExplicitJoint([(0, 0, 1), (1, 0, 2), (0, 3, 1)]),
    )
    # s(t) = 1 + 2/t - t < 0 past its root at t = 2
    assert variation.morse_index(fam, 3) == 0


def test_morse_index_drops_across_each_instant(circle_sphere):
    for t_l in variation.b_sequence(circle_sphere, 5):
        below = variation.morse_index(circle_sphere, t_l * Fraction(999, 1000))
        above = variation.morse_index(circle_sphere, t_l * Fraction(1001, 1000))
        assert below > above


# ---------------------------------------------------------------------------
# bifurcation certificates


def test_certificate_at_one(circle_sphere):
    cert = variation.certify_bifurcation(circle_sphere, 1)
    assert cert.t_star == 1
    assert cert.base_eigenvalue == 1
    assert (cert.index_below, cert.index_above) == (3, 1)
    r, s = cert.monotonicity_witness
    assert r < 1 < s
    assert (r, s) == (Fraction(5, 8), Fraction(5, 2))
    s_star = variation.scalar_curvature(circle_sphere, cert.t_star)
    key = (variation.scalar_curvature(circle_sphere, r) - s_star) * (
        variation.scalar_curvature(circle_sphere, s) - s_star
    )
    assert key < 0


def test_certificate_float_entry_point(circle_sphere):
    cert = variation.certify_bifurcation(circle_sphere, 0.25)
    assert cert.base_eigenvalue == 4
    assert cert.index_below != cert.index_above


def test_certificates_along_the_sequence(circle_sphere):
    for t_l in variation.b_sequence(circle_sphere, 5):
        cert = variation.certify_bifurcation(circle_sphere, t_l)
        assert cert.index_below != cert.index_above
        r, s = cert.monotonicity_witness
        assert r < t_l < s


def test_certify_off_instant_raises(circle_sphere):
    with pytest.raises(NotApplicableError):
        variation.certify_bifurcation(circle_sphere, Fraction(7, 10))


def test_certify_rejects_nonpositive(circle_sphere):
    with pytest.raises(InvalidArgumentError):
        variation.certify_bifurcation(circle_sphere, 0)


def test_certify_zero_scalar_curvature():
    # s(t) = 1 + 2/t - t vanishes at t = 2, where (1, 0) happens to cross
    base = cscbif.explicit_manifold("b", 2, 1, [(0, 1), (1, 2)], 10)
    fiber = cscbif.explicit_manifold("f", 2, 2, [(0, 1), (3, 1)], 10)
    fam = variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=1,
        joint_mode=variation.ExplicitJoint([(0, 0, 1), (1, 0, 2)]),
    )
    with pytest.raises(ZeroScalarCurvatureError):
        variation.certify_bifurcation(fam, 2)


def test_certify_tangential_crossing_inconclusive():
    # s = 7 - 2/t - 2t peaks at t = 1 where s/(m-1) = 1 is a base
    # eigenvalue; the crossing polynomial 2(t-1)^2 touches without sign
    # change, so no certificate can be issued
    base = cscbif.explicit_manifold("b", 2, 7, [(0, 1), (1, 2)], 20)
    fiber = cscbif.explicit_manifold("f", 2, -2, [(0, 1), (4, 1)], 20)
    fam = variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=2,
        joint_mode=variation.ExplicitJoint(
            [(0, 0, 1), (1, 0, 2), (0, 4, 1), (1, 4, 2)]
        ),
    )
    instants = variation.enumerate_degeneracy(fam, Fraction(1, 4), 4)
    assert [i.t for i in instants] == [Fraction(1)]
    with pytest.raises(InconclusiveError):
        variation.certify_bifurcation(fam, 1)


# ---------------------------------------------------------------------------
# nondiscreteness and its ablations


def test_nondiscrete_verdict(nondiscrete_family):
    res = variation.check_nondiscreteness(nondiscrete_family)
    assert res.nondiscrete
    assert res.witness == (Fraction(2), Fraction(2))


@pytest.mark.parametrize("which", ["oneill", "base-scalar", "fiber-scalar", "missing-sum"])
def test_single_ablation_restores_discreteness(which):
    fam = ablated_nondiscrete_families()[which]
    res = variation.check_nondiscreteness(fam)
    assert not res.nondiscrete
    # window kept narrow enough that the declared spectra stay complete
    instants = variation.enumerate_degeneracy(fam, Fraction(1, 7), 3)
    assert len(instants) < 40  # finite windowed answer, not a verdict


def test_nondiscreteness_equivalent_to_all_positive_pair(nondiscrete_family):
    fam = nondiscrete_family
    found = []
    for be in fam.base.spectrum.entries_below(25):
        for fe in fam.fiber.spectrum.entries_below(25):
            if be.value + fe.value == 0:
                continue
            if variation.degeneracy_roots(fam, be.value, fe.value).all_positive:
                found.append((be.value, fe.value))
    assert found == [(Fraction(2), Fraction(2))]
    assert variation.check_nondiscreteness(fam).nondiscrete == bool(found)


# ---------------------------------------------------------------------------
# stability threshold


def test_epsilon_infinite_for_flat_base(circle_sphere):
    assert variation.stability_epsilon(circle_sphere) == math.inf


def test_epsilon_hopf_exact(hopf_family):
    eps = variation.stability_epsilon(hopf_family)
    assert eps == Fraction(1, 4)
    assert isinstance(eps, Fraction)


def test_epsilon_interchanged_product():
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(1, Fraction(1)),
        base=cscbif.sphere_manifold(2, Fraction(1)),
    )
    assert variation.stability_epsilon(fam) == 1


def test_epsilon_needs_spectral_gap(nondiscrete_family):
    # first fiber eigenvalue 2 equals s_g/(m-1) = 2: no strict gap
    with pytest.raises(NotApplicableError):
        variation.stability_epsilon(nondiscrete_family)


# ---------------------------------------------------------------------------
# window classification reports


def test_classify_circle_sphere(circle_sphere):
    rep = variation.classify_window(circle_sphere, *CS_WINDOW)
    assert not rep.nondiscrete
    assert rep.d_source == "enumerated"
    assert rep.d_complete
    assert rep.epsilon == math.inf
    assert rep.stability_equality
    expected = tuple(Fraction(1, j * j) for j in range(31, 0, -1))
    assert rep.instants == expected
    assert rep.horizontal_instants == expected
    assert rep.certified_instants == expected
    assert all(r.fiber_constancy_guaranteed for r in rep.rows)
    assert all(r.certify_error is None for r in rep.rows)


def test_classify_hopf(hopf_family):
    rep = variation.classify_window(hopf_family, *HOPF_WINDOW)
    assert rep.epsilon == Fraction(1, 4)
    assert len(rep.rows) == 3
    assert rep.instants == rep.horizontal_instants == rep.certified_instants
    assert all(r.fiber_constancy_guaranteed for r in rep.rows)
    # largest windowed instant comes from b = 16: 12 t^2 + 48 t - 6 = 0
    assert max(rep.instants) == pytest.approx((3 * math.sqrt(2) - 4) / 2, abs=1e-12)


def test_classify_nondiscrete(nondiscrete_family):
    rep = variation.classify_window(nondiscrete_family, Fraction(1, 10), 3)
    assert rep.nondiscrete
    assert rep.nondiscrete_witness == (Fraction(2), Fraction(2))
    assert rep.rows == ()
    assert rep.d_source == "all-positive"
    assert not rep.stability_equality


def test_classify_vertical_instant_left_uncertified(sphere_sphere):
    rep = variation.classify_window(sphere_sphere, *SS_WINDOW)
    vertical = [r for r in rep.rows if not r.instant.horizontal]
    assert len(vertical) == 1
    assert vertical[0].instant.t == 2
    assert vertical[0].certificate is None
    assert vertical[0].certify_error == "unclassified: no horizontal witness"
    for r in rep.rows:
        if r.instant.horizontal:
            assert r.certificate is not None


def test_regime_flags_without_a_tabulated_first_eigenvalue():
    # s_h > 0 but the base table stops at 0, so lambda_1(base) is unknown
    # and the interchanged case cannot be claimed
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.explicit_manifold("base", 2, 2, [(0, 1)], 1),
    )
    assert fam.is_product and fam.base.scalar_curvature > 0
    assert not variation._regime_flags(fam).interchanged_product_case


# ---------------------------------------------------------------------------
# properties over random product families

_base_choices = [(1, Fraction(1)), (1, Fraction(2)), (2, Fraction(1)), (2, Fraction(1, 2))]
_fiber_choices = [
    (1, Fraction(1)),
    (2, Fraction(1)),
    (2, Fraction(2)),
    (3, Fraction(1)),
    (3, Fraction(1, 2)),
]


@given(base=st.sampled_from(_base_choices), fiber=st.sampled_from(_fiber_choices))
@settings(max_examples=30, deadline=None)
def test_windowed_instants_satisfy_the_defect_exactly(base, fiber):
    assume(base[0] + fiber[0] >= 3)
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(*fiber), base=cscbif.sphere_manifold(*base)
    )
    try:
        instants = variation.enumerate_degeneracy(fam, Fraction(1, 4), 4)
    except NondiscreteDegeneracyError:
        assume(False)
    m1 = fam.m - 1
    for inst in instants:
        assert Fraction(1, 4) < inst.t <= 4
        assert inst.witnesses
        s_t = variation.scalar_curvature(fam, inst.t)
        for b, lam in inst.witnesses:
            assert b + lam / inst.t == Fraction(s_t, m1)
        is_horizontal = any(
            lam == 0 and b != 0 for b, lam in inst.witnesses
        )
        assert inst.horizontal == is_horizontal


@given(base=st.sampled_from(_base_choices), fiber=st.sampled_from(_fiber_choices))
@settings(max_examples=30, deadline=None)
def test_inclusion_chain_on_random_products(base, fiber):
    assume(base[0] + fiber[0] >= 3)
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(*fiber), base=cscbif.sphere_manifold(*base)
    )
    rep = variation.classify_window(fam, Fraction(1, 4), 4)
    if rep.nondiscrete:
        assume(False)
    instants = set(rep.instants)
    horizontal = set(rep.horizontal_instants)
    certified = set(rep.certified_instants)
    assert certified <= horizontal <= instants
