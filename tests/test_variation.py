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
    IncompleteSpectrumError,
    InconclusiveError,
    InvalidArgumentError,
    NondiscreteDegeneracyError,
    NotApplicableError,
    ZeroScalarCurvatureError,
)

from conftest import (
    ablated_nondiscrete_families,
    b_sequence,
    brute_force_instants,
    entries_through,
    harmonic_dimension,
    hopf_realized_pairs,
    per_instant_witnesses,
    pullback_nondiscrete_family,
    reference_certificate,
    reference_instants,
    reference_morse_index,
    reference_pairs,
    reference_roots,
)


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


def test_instants_closer_than_double_resolution_stay_ordered():
    # 1/(10^20 + 1) and 1/10^20 round to the same double; the second is
    # witnessed by a fiber pair and by a base pullback
    big = 10**20
    base = cscbif.explicit_manifold(
        "b", 1, 0, [(0, 1), (big // 2, 1), (Fraction(big + 1, 2), 1), (big, 1)], 10**22
    )
    fiber = cscbif.explicit_manifold("f", 2, 2, [(0, 1), (Fraction(1, 2), 1)], 1)
    fam = variation.SubmersionFamily(fiber=fiber, base=base)
    instants = variation.enumerate_degeneracy(fam, Fraction(1, 10 * big), 1)
    ts = [i.t for i in instants]
    assert all(a < b for a, b in zip(ts, ts[1:])), ts
    hits = [i for i in instants if i.t == Fraction(1, big)]
    assert len(hits) == 1
    assert hits[0].witnesses == (
        (Fraction(big, 2), Fraction(1, 2)),
        (Fraction(big), Fraction(0)),
    )
    assert hits[0].horizontal


def test_roots_past_the_double_range_and_an_infinite_window_end():
    # a pullback root near 2 * 10^400, beyond every double, is ordered and
    # certified exactly, and a float t_max of inf bounds nothing
    base = cscbif.explicit_manifold(
        "b", 1, 0, [(0, 1), (Fraction(1, 2 * 10**400), 1), (1, 2)], 10)
    fiber = cscbif.explicit_manifold("f", 2, 2, [(0, 1), (Fraction(1, 2), 1)], 10)
    fam = variation.SubmersionFamily(fiber=fiber, base=base,
                                     joint_mode=variation.ExplicitJoint([(0, 0, 1)]))
    pairs = [(b, Fraction(0)) for b in (Fraction(1, 2 * 10**400), Fraction(1))]
    for t_max in (Fraction(10**500), math.inf):
        expected = reference_instants(fam, pairs, Fraction(1, 10), t_max)
        assert [t for t, _, _ in expected] == [1, 2 * 10**400]
        rows = variation.classify_window(fam, Fraction(1, 10), t_max).rows
        assert [(r.instant.t, r.instant.witnesses, r.instant.horizontal) for r in rows] == expected
        assert [(r.certificate.index_below, r.certificate.index_above) for r in rows] == [
            reference_certificate(fam, t, w[0][0]) for t, w, _ in expected]


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
# where the realized pairs come from: pullbacks from the base spectrum,
# vertical pairs from the joint mode

HOPF_WIDE_WINDOW = (Fraction(1, 1000), Fraction(3))


def test_hopf_oracle_splits_every_harmonic_of_s7():
    pairs = hopf_realized_pairs(1000, 1000)
    for k in range(5):
        level = [m for b, lam, m in pairs if b + lam == k * (k + 6)]
        assert sum(level) == harmonic_dimension(8, k)


def test_hopf_symmetry_breaking_only_at_the_round_metric(hopf_family):
    # every realized pair with lam > 0 other than (4, 3) gives a cleared
    # polynomial with nonnegative coefficients, so t = 1 is the only
    # instant that is not horizontal
    bounds = variation.pair_truncation_bounds(hopf_family, *HOPF_WIDE_WINDOW)
    table = hopf_realized_pairs(*bounds)
    fam = variation.SubmersionFamily(
        fiber=hopf_family.fiber,
        base=hopf_family.base,
        a_norm_sq=hopf_family.a_norm_sq,
        joint_mode=variation.ExplicitJoint(table),
    )
    instants = variation.enumerate_degeneracy(fam, *HOPF_WIDE_WINDOW)
    assert [(i.t, i.witnesses) for i in instants if not i.horizontal] == [
        (1, ((4, 3),))
    ]
    horizontal = variation.enumerate_horizontal_degeneracy(fam, *HOPF_WIDE_WINDOW)
    assert len(horizontal) == 14
    assert [i for i in instants if i.horizontal] == horizontal
    # the sign scan cannot see the double root 12 (t - 1)^2 of (4, 3); over
    # every other realized pair it finds the horizontal instants only
    others = [(b, lam) for b, lam, _ in table if (b, lam) != (4, 3)]
    reference = brute_force_instants(fam, others, *HOPF_WIDE_WINDOW)
    assert [float(i.t) for i in horizontal] == pytest.approx(reference, abs=1e-9)
    # the shipped table stops at b = 280, but the pullbacks do not need it
    assert variation.enumerate_degeneracy(hopf_family, *HOPF_WIDE_WINDOW) == instants


def test_explicit_family_is_complete_only_inside_the_reach(hopf_family):
    # lam_max = 1 + 8 t_max stays below the first fiber eigenvalue 3 exactly
    # for t_max < 1/4
    inside = variation.classify_window(hopf_family, Fraction(1, 100), Fraction(6, 25))
    assert inside.d_complete
    for t_max in (Fraction(1, 4), Fraction(3)):
        past = variation.classify_window(hopf_family, Fraction(1, 100), t_max)
        assert past.d_source == "enumerated"
        assert not past.d_complete


def test_explicit_pullbacks_need_the_base_spectrum_to_reach_b_max():
    # the table lists (1, 0), but b_max = 1/3 + 200/3 lies past the base
    # table's completeness bound 10
    base = cscbif.explicit_manifold("b", 2, 1, [(0, 1), (1, 2)], 10)
    fiber = cscbif.explicit_manifold("f", 2, 2, [(0, 1), (3, 1)], 10)
    fam = variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=1,
        joint_mode=variation.ExplicitJoint([(0, 0, 1), (1, 0, 2), (0, 3, 1)]),
    )
    with pytest.raises(IncompleteSpectrumError):
        variation.enumerate_degeneracy(fam, Fraction(1, 100), 1)


def test_all_pairs_needs_a_flat_integrability_tensor(hopf_family):
    with pytest.raises(InvalidArgumentError):
        variation.SubmersionFamily(
            fiber=hopf_family.fiber, base=hopf_family.base, a_norm_sq=12
        )


def test_a_pullback_row_must_be_a_base_eigenvalue(hopf_family):
    pairs = hopf_family.joint_mode.pairs + ((20, 0, 1),)
    with pytest.raises(InvalidArgumentError):
        variation.SubmersionFamily(
            fiber=hopf_family.fiber,
            base=hopf_family.base,
            a_norm_sq=hopf_family.a_norm_sq,
            joint_mode=variation.ExplicitJoint(pairs),
        )


# ---------------------------------------------------------------------------
# Morse indices


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


def test_morse_index_reads_a_float_as_its_exact_value(circle_sphere):
    # s/(m-1) = 1/t is within 1e-12 of the eigenvalue 4 but not equal to it
    assert variation.morse_index(circle_sphere, 0.25 + 5e-14) == 3


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
    for t_l in b_sequence(circle_sphere, 5):
        below = variation.morse_index(circle_sphere, t_l * Fraction(999, 1000))
        above = variation.morse_index(circle_sphere, t_l * Fraction(1001, 1000))
        assert below > above


# ---------------------------------------------------------------------------
# bifurcation certificates


def _indices_at_witnesses(fam, t_star):
    """The Morse indices at the oracle's witnesses around `t_star`."""
    r, s = per_instant_witnesses(fam, t_star)
    assert r < t_star < s
    return variation.morse_index(fam, r), variation.morse_index(fam, s)


def test_certificate_at_one(circle_sphere):
    cert = variation.certify_bifurcation(circle_sphere, 1)
    assert cert.t_star == 1
    assert cert.base_eigenvalue == 1
    assert (cert.index_below, cert.index_above) == (3, 1)
    assert per_instant_witnesses(circle_sphere, 1) == (Fraction(5, 8), Fraction(5, 2))
    assert _indices_at_witnesses(circle_sphere, 1) == (3, 1)


def test_certificate_float_entry_point(circle_sphere):
    cert = variation.certify_bifurcation(circle_sphere, 0.25)
    assert cert.base_eigenvalue == 4
    assert cert.index_below != cert.index_above


def test_certificates_along_the_sequence(circle_sphere):
    for t_l in b_sequence(circle_sphere, 5):
        cert = variation.certify_bifurcation(circle_sphere, t_l)
        assert cert.index_below != cert.index_above
        assert (cert.index_below, cert.index_above) == _indices_at_witnesses(circle_sphere, t_l)


def test_certify_off_instant_raises(circle_sphere):
    with pytest.raises(NotApplicableError):
        variation.certify_bifurcation(circle_sphere, Fraction(7, 10))


def test_certify_reads_a_float_as_its_exact_value(circle_sphere):
    # the double nearest 1/9 is not the instant 1/9; 0.25 is exactly 1/4
    with pytest.raises(NotApplicableError):
        variation.certify_bifurcation(circle_sphere, 1 / 9)
    assert variation.certify_bifurcation(circle_sphere, 1 / 4).base_eigenvalue == 4


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


def _tangential_family(eps=0):
    # s = 7 - 2/t - 2t peaks at t = 1 where s/(m-1) = 1; the base
    # eigenvalue 1 - eps crosses through 2 t^2 - (4 + 3 eps) t + 2, a double
    # root at t = 1 for eps = 0 and an irrational pair 1 -+ sqrt(6 eps)/2 +
    # O(eps) otherwise
    b = 1 - eps
    base = cscbif.explicit_manifold("b", 2, 7, [(0, 1), (b, 2)], 20)
    fiber = cscbif.explicit_manifold("f", 2, -2, [(0, 1), (4, 1)], 20)
    return variation.SubmersionFamily(
        fiber=fiber,
        base=base,
        a_norm_sq=2,
        joint_mode=variation.ExplicitJoint(
            [(0, 0, 1), (b, 0, 2), (0, 4, 1), (b, 4, 2)]
        ),
    )


def test_certify_tangential_crossing_inconclusive():
    # the crossing polynomial 2(t-1)^2 touches without sign change, so no
    # certificate can be issued
    fam = _tangential_family()
    instants = variation.enumerate_degeneracy(fam, Fraction(1, 4), 4)
    assert [i.t for i in instants] == [Fraction(1)]
    with pytest.raises(InconclusiveError):
        variation.certify_bifurcation(fam, 1)


def test_certify_where_the_crossing_polynomial_vanishes():
    # (2, 0) vanishes identically: every t is degenerate, none a jump
    fam = pullback_nondiscrete_family()
    for t in (1, 0.5):
        with pytest.raises(NondiscreteDegeneracyError):
            variation.certify_bifurcation(fam, t)


@pytest.mark.parametrize("eps, kind", [(0, Fraction), (Fraction(1, 10**40), float)])
def test_a_root_pair_at_one_double_is_inconclusive(eps, kind):
    # at eps = 10^-40 the two irrational roots round to the one double 1.0:
    # the index jumps up and back down within it, so neither side's count
    # belongs to that float
    fam = _tangential_family(eps)
    rows = variation.classify_window(fam, Fraction(1, 4), 4).rows
    assert [r.instant.t for r in rows] == [1]
    assert type(rows[0].instant.t) is kind
    assert rows[0].certificate is None
    assert rows[0].certify_error.startswith("InconclusiveError: ")
    with pytest.raises(InconclusiveError):
        variation.certify_bifurcation(fam, rows[0].instant.t)


def test_the_branch_of_an_irrational_root_orders_its_indices():
    # the roots are two floats about sqrt(6 eps)/2 either side of 1: 1.2e-10
    # at eps = 10^-20, 1.2e-13 at eps = 10^-26, closer together than 1e-12;
    # the index is 1 outside them and 3 between them
    for eps in (Fraction(1, 10**20), Fraction(1, 10**26)):
        fam = _tangential_family(eps)
        assert [variation.morse_index(fam, t) for t in (Fraction(1, 2), 1, 2)] == [1, 3, 1]
        rows = variation.classify_window(fam, Fraction(1, 4), 4).rows
        assert [type(r.instant.t) for r in rows] == [float, float]
        assert rows[0].instant.t < 1 < rows[1].instant.t
        for row, indices in zip(rows, [(1, 3), (3, 1)]):
            cert = variation.certify_bifurcation(fam, row.instant.t)
            assert row.certificate == cert
            assert (cert.index_below, cert.index_above) == indices
            assert _indices_at_witnesses(fam, row.instant.t) == indices


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


@pytest.mark.parametrize("which", [
    "nondiscrete", "oneill", "base-scalar", "fiber-scalar", "missing-sum", "pullback",
])
def test_nondiscreteness_equivalent_to_all_positive_pair(which, nondiscrete_family):
    expected = {"nondiscrete": [(2, 2)], "pullback": [(2, 0)]}.get(which, [])
    fam = {
        "nondiscrete": nondiscrete_family,
        "pullback": pullback_nondiscrete_family(),
        **ablated_nondiscrete_families(),
    }[which]
    # every pair up to the base table's bound, scanned one by one: base x
    # fiber for a product, the pullbacks and the table rows otherwise
    bound = fam.base.spectrum.completeness_bound()
    base = [be.value for be in fam.base.spectrum.entries_below(bound)]
    if fam.is_product:
        pairs = [(b, fe.value) for b in base for fe in fam.fiber.spectrum.entries_below(bound)]
    else:
        pairs = [(b, 0) for b in base] + [(p.horizontal, p.fiber) for p in fam.joint_mode.pairs]
    found = sorted({
        (b, lam) for b, lam in pairs
        if b + lam != 0 and variation.degeneracy_roots(fam, b, lam).all_positive
    })
    assert found == expected
    res = variation.check_nondiscreteness(fam)
    assert res.nondiscrete == bool(found)
    assert res.witness == (found[0] if found else None)


@pytest.mark.parametrize("extra_rows", [(), ([2, 0, 3],)], ids=["table", "redundant-row"])
def test_classify_finds_a_vanishing_pullback_the_table_omits(extra_rows):
    rep = variation.classify_window(
        pullback_nondiscrete_family(extra_rows), Fraction(1, 2), 2)
    assert rep.nondiscrete
    assert rep.nondiscrete_witness == (Fraction(2), Fraction(0))
    assert rep.d_source == "all-positive"
    assert rep.rows == ()


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


DEEP_CS_WINDOW = (Fraction(1, 10000), Fraction(2))


@pytest.fixture
def horizontal_enumerations(monkeypatch):
    """The argument tuples of every `enumerate_horizontal_degeneracy` call."""
    calls = []
    enumerate_horizontal = variation.enumerate_horizontal_degeneracy

    def counting(*args):
        calls.append(args)
        return enumerate_horizontal(*args)

    monkeypatch.setattr(variation, "enumerate_horizontal_degeneracy", counting)
    return calls


def test_classify_enumerates_the_horizontal_instants_once(circle_sphere, horizontal_enumerations):
    # the full enumeration finds them; the certificates enumerate nothing
    rep = variation.classify_window(circle_sphere, *DEEP_CS_WINDOW)
    assert len(rep.certified_instants) == 99
    assert horizontal_enumerations == []


def test_a_rational_certificate_enumerates_nothing(circle_sphere, horizontal_enumerations):
    assert variation.certify_bifurcation(circle_sphere, 1).index_below == 3
    assert horizontal_enumerations == []


@pytest.mark.parametrize(
    "family, window",
    [
        ("circle_sphere", DEEP_CS_WINDOW),
        ("hopf_family", (Fraction(1, 1000), Fraction(3))),
        ("sphere_sphere", SS_WINDOW),
    ],
)
def test_classify_certificates_match_the_standalone_ones(family, window, request):
    fam = request.getfixturevalue(family)
    rows = [r for r in variation.classify_window(fam, *window).rows if r.instant.horizontal]
    assert rows
    for row in rows:
        t = row.instant.t
        try:
            expected, error = variation.certify_bifurcation(fam, t), None
        except (InconclusiveError, ZeroScalarCurvatureError, NotApplicableError) as exc:
            expected, error = None, f"{type(exc).__name__}: {exc}"
        assert (row.certificate, row.certify_error) == (expected, error)
        if row.certificate is not None:
            indices = (row.certificate.index_below, row.certificate.index_above)
            assert indices == _indices_at_witnesses(fam, t)


def test_a_near_pair_keeps_its_irrational_roots_apart_from_an_exact_instant(hopf_family):
    # (4, 3) gives 12 (t - 1)^2, an exact double root at t = 1; the pair
    # (5, 2 + 10^-13) gives 12 t^2 - 18 t + 6 + 6 10^-13, whose irrational
    # roots lie about 10^-13 inside 1/2 and 1
    lam = 2 + Fraction(1, 10**13)
    fam = variation.SubmersionFamily(
        fiber=hopf_family.fiber,
        base=hopf_family.base,
        a_norm_sq=hopf_family.a_norm_sq,
        joint_mode=variation.ExplicitJoint(hopf_family.joint_mode.pairs + ((5, lam, 1),)),
    )
    rows = variation.classify_window(fam, Fraction(1, 2), Fraction(3, 2)).rows
    assert [(r.instant.t, r.instant.witnesses) for r in rows] == [
        (pytest.approx(0.5 + 1e-13, abs=1e-15), ((5, lam),)),
        (pytest.approx(1 - 1e-13, abs=1e-15), ((5, lam),)),
        (1, ((4, 3),)),
    ]
    assert [type(r.instant.t) for r in rows] == [float, float, Fraction]


def test_regime_flags_without_a_tabulated_first_eigenvalue():
    # s_h > 0 and the base table stops at 0, but it is complete below
    # 1 > s_h/(m-1) = 2/3, so lambda_1(base) > 2/3: the interchanged case
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.explicit_manifold("base", 2, 2, [(0, 1)], 1),
    )
    assert fam.is_product and fam.base.scalar_curvature > 0
    assert variation._regime_flags(fam).interchanged_product_case


@pytest.mark.parametrize("entries, interchanged", [
    ([(0, 1)], True),
    ([(0, 1), (9, 2)], True),
    ([(0, 1), (Fraction(4, 3), 2)], False),
], ids=["constants-only", "far-eigenvalue", "eigenvalue-at-threshold"])
def test_interchanged_flag_reads_the_base_up_to_the_threshold(entries, interchanged):
    # s_h = 4, m = 4: the threshold s_h/(m-1) is 4/3, and the table is
    # complete below 10
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.explicit_manifold("base", 2, 4, entries, 10),
    )
    rep = variation.classify_window(fam, Fraction(1, 2), 2)
    assert rep.regime.interchanged_product_case is interchanged


def test_fiber_table_without_a_positive_row_is_classified():
    # the fiber table lists only the constants but is complete below 100:
    # lambda_1 > 100 > lam_max makes the list complete; eps needs the value
    # of lambda_1, so there is no stability window
    fam = variation.SubmersionFamily(
        fiber=cscbif.explicit_manifold("f", 2, 2, [(0, 1)], 100),
        base=cscbif.sphere_manifold(2, Fraction(1)),
        joint_mode=variation.ExplicitJoint([(0, 0, 1)]),
    )
    _, lam_max = variation.pair_truncation_bounds(fam, Fraction(1, 4), 2)
    assert lam_max <= 100
    rep = variation.classify_window(fam, Fraction(1, 4), 2)
    assert rep.d_complete is True
    assert rep.epsilon is None and not rep.stability_equality
    assert rep.instants == (Fraction(1, 2),)      # the pullback b = 2: (3b - 2) t = 2
    with pytest.raises(NotApplicableError):
        variation.stability_epsilon(fam)


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


# ---------------------------------------------------------------------------
# the integer layer against the Fraction reference


def _spectrum(draw, dim):
    """A round sphere spectrum of a random rational radius, a random table,
    or for dim 2 the product of two circles, with the scalar curvature of
    the round metric (a table's is random)."""
    if dim == 2 and draw(st.integers(0, 3)) == 0:
        radii = draw(st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(2, 3)]),
                              min_size=2, max_size=2))
        return cscbif.product_spectrum(*(cscbif.sphere_spectrum(1, r) for r in radii)), 0
    if draw(st.booleans()):
        radius = draw(st.one_of(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]),
                                st.fractions(min_value=Fraction(1, 4), max_value=3,
                                             max_denominator=6)))
        return cscbif.sphere_spectrum(dim, radius), Fraction(dim * (dim - 1)) / radius**2
    values = draw(st.lists(st.fractions(min_value=Fraction(1, 5), max_value=30,
                                        max_denominator=7), max_size=6, unique=True))
    entries = [(0, 1)] + [(v, draw(st.integers(1, 4))) for v in sorted(values)]
    return cscbif.explicit_spectrum(entries, 10**6), _curvature(draw)


def _curvature(draw):
    return draw(st.fractions(min_value=-12, max_value=12, max_denominator=5))


@st.composite
def exact_families(draw):
    """A family with random spectra, curvatures and |A|^2, a product or a
    joint table, with the round curvatures, random ones, or curvatures put
    so that a pullback has a rational root (a square discriminant), some
    pair a zero slope, or the nondiscrete pair vanishes; and a window
    (t_min, t_max]."""
    dim_b = draw(st.integers(1, 3))
    dim_f = draw(st.integers(max(1, 3 - dim_b), 3))
    base_spec, s_h = _spectrum(draw, dim_b)
    fiber_spec, s_g = _spectrum(draw, dim_f)
    m1 = dim_b + dim_f - 1
    base_values = [v for v, _ in entries_through(base_spec, 40)]
    fiber_values = [v for v, _ in entries_through(fiber_spec, 40)]
    product = draw(st.booleans())
    a2 = Fraction(0)
    if not product and draw(st.booleans()):
        a2 = draw(st.fractions(min_value=Fraction(1, 4), max_value=15, max_denominator=4))
    rows = [(0, 0, 1)]
    if not product:
        rows += [(draw(st.sampled_from(base_values)), 0, 1)] * draw(st.integers(0, 1))
        rows += [(draw(st.one_of(st.sampled_from(base_values),
                                 st.fractions(min_value=0, max_value=20, max_denominator=4))),
                  draw(st.fractions(min_value=Fraction(1, 3), max_value=20, max_denominator=4)),
                  draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 4)))]
    pairs = ([(b, 0) for b in base_values] + [(b, lam) for b in base_values
                                              for lam in fiber_values if lam > 0]
             if product else [(Fraction(r[0]), Fraction(r[1])) for r in rows])
    shape = draw(st.sampled_from(["round", "generic", "rational-root", "zero-slope",
                                  "nondiscrete"]))
    if shape == "generic":
        s_h, s_g = _curvature(draw), _curvature(draw)
    elif shape == "rational-root":
        # s_h put so that the pullback (b, 0) vanishes at t = r, and a
        # table row (c, (b - c) r) with c < b that shares the root
        b = draw(st.sampled_from(base_values))
        r = draw(st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=10))
        s_h = (a2 * r * r + m1 * b * r - s_g) / r
        if not product and b > 0:
            c = b * draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
            rows += [(c, (b - c) * r, 1)] * draw(st.integers(1, 2))
    elif shape == "zero-slope":
        s_h = m1 * draw(st.sampled_from(base_values))
    elif shape == "nondiscrete" and a2 == 0:
        b, lam = draw(st.sampled_from(pairs))
        s_h, s_g = m1 * b, m1 * lam
    fam = variation.SubmersionFamily(
        fiber=cscbif.spectra.ManifoldDescriptor("f", dim_f, s_g, fiber_spec),
        base=cscbif.spectra.ManifoldDescriptor("b", dim_b, s_h, base_spec),
        a_norm_sq=a2,
        joint_mode=variation.ALL_PAIRS if product else variation.ExplicitJoint(rows),
    )
    t_min = draw(st.fractions(min_value=Fraction(1, 30), max_value=3, max_denominator=30))
    t_max = t_min + draw(st.fractions(min_value=Fraction(1, 10), max_value=5,
                                      max_denominator=10))
    return fam, t_min, t_max


@given(case=exact_families())
@settings(max_examples=150, deadline=None)
def test_the_integer_layer_matches_the_fraction_reference(case):
    # roots per pair, the grouped instants with their witnesses and flags,
    # and every certificate, through classify and through the public entry
    fam, t_min, t_max = case
    pairs = reference_pairs(fam, *variation.pair_truncation_bounds(fam, t_min, t_max))
    for b, lam in pairs:
        expected = reference_roots(fam, b, lam)
        got = variation.degeneracy_roots(fam, b, lam)
        if expected is None:
            assert got.all_positive and not got.roots
        else:
            assert got.roots == expected and not got.all_positive
            assert [type(t) for t in got.roots] == [type(t) for t in expected]
    try:
        expected = reference_instants(fam, pairs, t_min, t_max)
    except NondiscreteDegeneracyError as exc:
        with pytest.raises(NondiscreteDegeneracyError) as info:
            variation.enumerate_degeneracy(fam, t_min, t_max)
        assert info.value.witness == exc.witness
        assert variation.check_nondiscreteness(fam).witness == exc.witness
        assert variation.classify_window(fam, t_min, t_max).nondiscrete
        return
    assert not variation.check_nondiscreteness(fam).nondiscrete
    rows = variation.classify_window(fam, t_min, t_max).rows
    assert [(r.instant.t, r.instant.witnesses, r.instant.horizontal) for r in rows] == expected
    assert [type(r.instant.t) for r in rows] == [type(t) for t, _, _ in expected]
    for row in rows:
        if not row.instant.horizontal:
            assert row.certificate is None
            continue
        crossing = next(b for b, lam in row.instant.witnesses if lam == 0)
        try:
            indices = reference_certificate(fam, row.instant.t, crossing)
        except InconclusiveError:
            assert row.certificate is None
            assert row.certify_error.startswith("InconclusiveError: ")
            with pytest.raises(InconclusiveError):
                variation.certify_bifurcation(fam, row.instant.t)
            continue
        cert = row.certificate
        assert (cert.base_eigenvalue, cert.index_below, cert.index_above) == (crossing, *indices)
        assert variation.certify_bifurcation(fam, row.instant.t) == cert


@given(case=exact_families(),
       t=st.fractions(min_value=Fraction(1, 30), max_value=10, max_denominator=30))
@settings(max_examples=100, deadline=None)
def test_morse_index_matches_a_brute_force_count(case, t):
    fam = case[0]
    try:
        expected = reference_morse_index(fam, t)
    except DegeneratePointError:
        with pytest.raises(DegeneratePointError):
            variation.morse_index(fam, t)
        return
    assert variation.morse_index(fam, t) == expected


def test_certificates_scale_with_the_window(circle_sphere, monkeypatch):
    # 999 instants 1/j^2 on (10^-6, 2], each certified from the running
    # totals: #{k^2 < j^2} = 2j - 1 and #{k^2 <= j^2} = 2j + 1 by a walk of
    # the unit circle's entries.  The spectra build as many entries over 999
    # instants as over 99 (a cut reads no prefix), and `contains` is called
    # once per certified instant
    built, tested = [], []
    entry, contains = cscbif.spectra.SphereSpectrum.entry, variation.contains

    def counting_entry(self, k):
        built.append(k)
        return entry(self, k)

    def counting_contains(spectrum, x):
        if spectrum is fam.base.spectrum:
            tested.append(x)
        return contains(spectrum, x)

    monkeypatch.setattr(cscbif.spectra.SphereSpectrum, "entry", counting_entry)
    monkeypatch.setattr(variation, "contains", counting_contains)
    made = {}
    for den in (10**4, 10**6):
        built.clear()
        tested.clear()
        fam = variation.SubmersionFamily(fiber=cscbif.sphere_manifold(2, 1),
                                          base=cscbif.sphere_manifold(1, 1))
        rep = variation.classify_window(fam, Fraction(1, den), 2)
        certified = [r.certificate.base_eigenvalue for r in rep.rows if r.certificate]
        assert len(certified) == len(rep.rows) == {10**4: 99, 10**6: 999}[den]
        # the nondiscreteness check asks for s_h / (m - 1) = 0 once more
        assert sorted(tested) == [0] + sorted(certified)
        made[den] = len(built)
    assert made[10**6] == made[10**4]

    walk = [(int(v), m) for v, m in entries_through(fam.base.spectrum, 10**6)]
    for row in rep.rows:
        b = int(row.certificate.base_eigenvalue)
        below = sum(m for v, m in walk if v < b)
        at_most = below + sum(m for v, m in walk if v == b)
        j = math.isqrt(b)
        assert row.instant.t == Fraction(1, b) and (below, at_most) == (2 * j - 1, 2 * j + 1)
        # s_g > 0 and |A| = 0: q' = (m-1) b - s_h > 0, the index drops across t
        assert (row.certificate.index_below, row.certificate.index_above) == (at_most, below)
