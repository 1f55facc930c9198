"""Branch detection, switching, continuation, and the two-space reduction.

Branch points come from the exact degeneracy roots of the resolved mode
pairs; they are checked against the windowed exact enumeration of
`variation` and against the sign change of the discretized diagonal at
u = 1.
"""

from fractions import Fraction

import numpy as np
import pytest

import cscbif
from cscbif import continuation, galerkin, variation
from cscbif.errors import (
    EmptyBranchError,
    HypothesisViolatedError,
    InvalidArgumentError,
    NoConvergenceError,
    NondiscreteDegeneracyError,
    PositivityViolationError,
    PreconditionError,
)


@pytest.fixture(scope="module")
def mixed_model():
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(1, Fraction(1)),
        base=cscbif.sphere_manifold(2, Fraction(1)),
    )
    return galerkin.build_model(fam, 8, 6)


# ---------------------------------------------------------------------------
# detection


def test_single_branch_point_near_one(cs_branch_point):
    bp = cs_branch_point
    assert bp.t == 1 and isinstance(bp.t, Fraction)
    assert sorted(bp.kernel_modes) == [(1, 0), (2, 0)]
    assert bp.kernel_dim == 2
    assert bp.horizontal


def test_detection_matches_spectral_instants(cs_model):
    points = continuation.detect_branch_points(cs_model, 0.05, 1.5)
    assert [bp.t for bp in points] == [
        Fraction(1, 16), Fraction(1, 9), Fraction(1, 4), Fraction(1)
    ]
    assert all(bp.horizontal for bp in points)


def test_detected_points_lie_on_exact_instants(cs_model, circle_sphere):
    # the exact enumeration restricted to the pairs the basis resolves
    window = (Fraction(1, 20), Fraction(3, 2))
    points = continuation.detect_branch_points(cs_model, *window)
    pair_of = dict(cs_model.eigentable())
    resolved = set(pair_of.values())
    expected = {}
    for inst in variation.enumerate_degeneracy(circle_sphere, *window):
        seen = set(inst.witnesses) & resolved
        if seen:
            expected[inst.t] = seen
    assert {bp.t: {pair_of[m] for m in bp.kernel_modes} for bp in points} == expected


def test_window_is_half_open(cs_model):
    points = continuation.detect_branch_points(cs_model, Fraction(1, 4), 1)
    assert [bp.t for bp in points] == [1]


def test_sphere_sphere_instants_are_exact(sphere_sphere):
    # the vertical instant t = 2 sits exactly on eps = 2, so verify refuses it
    model = galerkin.build_model(sphere_sphere, 8, 6)
    points = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    assert [bp.t for bp in points] == [Fraction(1, 2), Fraction(2)]
    assert [bp.kernel_modes for bp in points] == [((1, 0),), ((0, 1),)]
    assert variation.stability_epsilon(sphere_sphere) == 2
    with pytest.raises(PreconditionError):
        continuation.verify_fiber_constancy(model, points[1], 1)


def test_identically_degenerate_pair_is_nondiscrete(cs_model):
    # curvatures chosen so that 2 b = s_h and 2 lam = s_g for the resolved
    # pair (1, 2): its degeneracy polynomial vanishes for every t
    family = variation.SubmersionFamily(
        fiber=cscbif.explicit_manifold("fiber", 2, 4, [(0, 1), (2, 3)], 3),
        base=cscbif.explicit_manifold("base", 1, 2, [(0, 1), (1, 2)], 2),
    )
    model = galerkin.GalerkinModel(family, cs_model.base, cs_model.fiber)
    with pytest.raises(NondiscreteDegeneracyError):
        continuation.detect_branch_points(model, Fraction(1, 2), 2)


def test_kernel_vectors_span_the_crossing_modes(cs_model, cs_branch_point):
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point)
    assert vecs.shape == (2,) + cs_model.shape
    flat = vecs.reshape(2, -1)
    # orthonormal, supported exactly on the flagged modes
    assert np.abs(flat @ flat.T - np.eye(2)).max() < 1e-12
    flat_modes = [i * cs_model.shape[1] + j for i, j in cs_branch_point.kernel_modes]
    mask = np.ones(cs_model.n_modes, bool)
    mask[flat_modes] = False
    assert np.abs(flat[:, mask]).max() == 0


def test_negative_mode_count_jumps_by_kernel_size(cs_model, cs_branch_point):
    below = np.sum(galerkin.linearization_at_one(cs_model, 0.98) < 0)
    above = np.sum(galerkin.linearization_at_one(cs_model, 1.02) < 0)
    assert below - above == cs_branch_point.kernel_dim


# ---------------------------------------------------------------------------
# Newton solves


def test_newton_basin_of_the_constant(cs_model):
    start = galerkin.constant_state(cs_model, 0.7, value=0.9)
    sol = continuation.newton_solve(cs_model, 0.7, start)
    assert continuation.residual_norm(cs_model, sol) < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, sol) < 1e-8


def test_newton_rejects_sign_changing_initial(cs_model):
    bad = galerkin.constant_state(cs_model, 0.7)
    bad.coeffs[1, 0] = 15.0
    with pytest.raises(PositivityViolationError):
        continuation.newton_solve(cs_model, 0.7, bad)


def test_newton_reports_stagnation_at_the_degenerate_scale(cs_model):
    # at the branch point itself the Jacobian is singular and the damped
    # iteration stalls instead of converging
    near = galerkin.constant_state(cs_model, 1.0)
    near.coeffs[1, 0] = 5.0
    with pytest.raises(NoConvergenceError):
        continuation.newton_solve(cs_model, 1.0, near)


# ---------------------------------------------------------------------------
# branch switching


def test_switch_produces_nontrivial_solution(cs_model, cs_branch_point):
    state = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    # the solve relaxes t along the branch, which bends at second order
    assert abs(state.t - cs_branch_point.t) < 1e-4
    assert continuation.residual_norm(cs_model, state) < continuation.TOL_NEWTON
    dist = galerkin.u_distance(cs_model, state)
    assert 1e-3 < dist < 1e-1
    assert galerkin.fiber_energy_fraction(state) < 1e-15


def test_switch_respects_direction_sign(cs_model, cs_branch_point):
    plus = continuation.switch_branch(cs_model, cs_branch_point, 1e-2, direction=+1)
    minus = continuation.switch_branch(cs_model, cs_branch_point, 1e-2, direction=-1)
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point).reshape(2, -1)
    triv = galerkin.constant_state(cs_model, cs_branch_point.t).coeffs.ravel()
    cp = vecs @ (plus.coeffs.ravel() - triv)
    cm = vecs @ (minus.coeffs.ravel() - triv)
    # both pinned at the same amplitude, on opposite sides of the kernel
    assert np.linalg.norm(cp) == pytest.approx(1e-2, rel=1e-6)
    assert np.linalg.norm(cm) == pytest.approx(1e-2, rel=1e-6)
    assert np.dot(cp, cm) < 0


def test_switch_works_at_the_second_instant(cs_model):
    points = continuation.detect_branch_points(cs_model, 0.2, 0.3)
    assert [bp.t for bp in points] == [Fraction(1, 4)]
    state = continuation.switch_branch(cs_model, points[0], 5e-3)
    assert continuation.residual_norm(cs_model, state) < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, state) > 1e-3


def test_switch_needs_kernel_modes(cs_model):
    fake = continuation.BranchPoint(t=0.9, kernel_modes=())
    with pytest.raises(PreconditionError):
        continuation.switch_branch(cs_model, fake, 1e-2)


# ---------------------------------------------------------------------------
# the bordered corrector


def test_bordered_tangent_matches_the_svd_null_vector(cs_model, cs_branch_point):
    state = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    offset = state.coeffs.ravel() - galerkin.constant_state(cs_model, 1.0).coeffs.ravel()
    gen = continuation._rotation_generator(cs_model, cs_branch_point)
    orbit = continuation._orbit(cs_model, cs_branch_point, gen, offset)
    unit = offset / np.linalg.norm(offset)
    v = continuation._tangent(cs_model, state, orbit, np.append(unit, 0.0))

    # oracle: the null vector of the extended Jacobian whose extra row fixes
    # the phase, the kernel-span direction orthogonal to the offset's kernel part
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point).reshape(2, -1)
    a, b = vecs @ offset
    phase = (-b * vecs[0] + a * vecs[1]) / np.hypot(a, b)
    n = cs_model.n_modes
    ext = np.zeros((n + 1, n + 1))
    ext[:n, :n] = galerkin.residual_jacobian(cs_model, state)
    ext[:n, n] = galerkin.residual_t_derivative(cs_model, state).ravel()
    ext[n, :n] = phase
    null = np.linalg.svd(ext)[2][-1]

    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert abs(1 - abs(v @ null)) <= 1e-10
    assert v[:n] @ unit > 0


def test_unfolding_parameter_vanishes_on_solutions(cs_model, cs_branch_point):
    c_triv = galerkin.constant_state(cs_model, cs_branch_point.t).coeffs.ravel()
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point).reshape(2, -1)
    n_hat = (vecs[0] + 2 * vecs[1]) / np.sqrt(5)
    gen = continuation._rotation_generator(cs_model, cs_branch_point)
    orbit = continuation._orbit(cs_model, cs_branch_point, gen, n_hat)
    state, mu = continuation._solve_bordered(
        cs_model, c_triv + 1e-2 * n_hat, cs_branch_point.t, orbit,
        np.append(n_hat, 0.0), n_hat @ c_triv + 1e-2,
    )
    assert abs(mu) <= 1e-10
    assert continuation.residual_norm(cs_model, state) < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, state) > 1e-3


@pytest.mark.parametrize("which", ["base", "fiber"])
def test_rotation_generator_is_tangent_to_the_orbit(which, cs_model, cs_branch_point,
                                                    mixed_model):
    # the circle is the base of cs_model and the fiber of mixed_model; on a
    # solution, the rotated direction gen c is a null vector of the Jacobian
    if which == "base":
        model, bp = cs_model, cs_branch_point
    else:
        model = mixed_model
        (bp,) = continuation.detect_branch_points(model, 0.5, 1.5)
    state = continuation.switch_branch(model, bp, 1e-2)
    gen = continuation._rotation_generator(model, bp)
    assert np.array_equal(gen, -gen.T)
    orbit_dir = gen @ state.coeffs.ravel()
    jac = galerkin.residual_jacobian(model, state)
    assert np.linalg.norm(orbit_dir) > 1e-3
    assert np.linalg.norm(jac @ orbit_dir) <= 1e-9 * np.linalg.norm(orbit_dir)


def test_unsupported_kernel_is_a_precondition_error(cs_model):
    three = continuation.BranchPoint(t=1.0, kernel_modes=((1, 0), (2, 0), (3, 0)))
    with pytest.raises(PreconditionError):
        continuation.switch_branch(cs_model, three, 1e-2)


def test_branch_converges_under_base_refinement(circle_sphere):
    # the t = 1 branch carries only low circle frequencies, so doubling N_b
    # changes it at roundoff level; observed 2.2e-14 in t and 5.3e-17 in
    # distance, bounded here 100 times above that
    bp = continuation.BranchPoint(t=1.0, kernel_modes=((1, 0), (2, 0)))
    last = []
    for n_b in (16, 32):
        model = galerkin.build_model(circle_sphere, n_b, 8)
        start = continuation.switch_branch(model, bp, 1e-2)
        branch = continuation.continue_branch(model, start, -1, 10, 4e-4, origin=bp)
        assert len(branch) == 11
        last.append(branch.samples[-1])
    coarse, fine = last
    assert abs(coarse.t - fine.t) <= 2.2e-12
    assert abs(coarse.u_distance - fine.u_distance) <= 5.3e-15


# ---------------------------------------------------------------------------
# continuation


@pytest.fixture(scope="module")
def shrinking_branch(cs_model, cs_branch_point):
    start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    return continuation.continue_branch(
        cs_model, start, -1, 40, 4e-4, origin=cs_branch_point
    )


def test_branch_approaches_the_branch_point(cs_model, shrinking_branch):
    br = shrinking_branch
    assert br.stop_reason == "turnaround"
    dists = br.distances
    tail = dists[-10:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert dists[-1] < 1e-6
    assert abs(br.ts[-1] - 1.0) < 1e-8


def test_branch_samples_are_converged_and_close(cs_model, shrinking_branch):
    br = shrinking_branch
    for sample in br.samples:
        assert sample.residual_norm < continuation.TOL_NEWTON
        assert sample.fiber_fraction < 1e-10
    for a, b in zip(br.samples, br.samples[1:]):
        gap = np.hypot(
            b.t - a.t, np.linalg.norm(b.state.coeffs - a.state.coeffs)
        )
        assert gap < 2 * 4e-4


def test_branch_energy_gradient_vanishes_along_tangent(cs_model, shrinking_branch):
    # at converged samples the u-directional derivative of the energy is
    # zero to solver tolerance in any direction; probe a random one
    rng = np.random.default_rng(23)
    h = 1e-6
    for sample in list(shrinking_branch.samples)[:3]:
        direction = rng.standard_normal(cs_model.shape)
        direction /= np.linalg.norm(direction)
        plus = galerkin.State(sample.t, sample.state.coeffs + h * direction)
        minus = galerkin.State(sample.t, sample.state.coeffs - h * direction)
        fd = (galerkin.energy(cs_model, plus) - galerkin.energy(cs_model, minus)) / (
            2 * h
        )
        assert abs(fd) < 1e-6


def test_growing_branch_stops_at_positivity(cs_model, cs_branch_point):
    start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    br = continuation.continue_branch(
        cs_model, start, +1, 400, 0.1, origin=cs_branch_point
    )
    assert br.stop_reason == "positivity-stop"
    assert br.distances[-1] > 1.0
    last = galerkin.grid_values(cs_model, br.samples[-1].state)
    assert 0 < last.min() < 0.05


def test_absurd_step_yields_no_branch(cs_model, cs_branch_point):
    start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    with pytest.raises(EmptyBranchError):
        continuation.continue_branch(cs_model, start, +1, 5, 50.0, origin=cs_branch_point)


def test_continuation_argument_validation(cs_model, cs_branch_point):
    start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    with pytest.raises(InvalidArgumentError):
        continuation.continue_branch(cs_model, start, 0, 10, 1e-3)
    with pytest.raises(InvalidArgumentError):
        continuation.continue_branch(cs_model, start, 1, 0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        continuation.continue_branch(cs_model, start, 1, 10, -1e-3)
    bad_start = galerkin.constant_state(cs_model, 1.0, value=1.5)
    with pytest.raises(PreconditionError):
        continuation.continue_branch(cs_model, bad_start, 1, 10, 1e-3)


def test_continuation_replays_bit_identically(cs_model, cs_branch_point):
    def run():
        start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
        br = continuation.continue_branch(
            cs_model, start, -1, 15, 4e-4, origin=cs_branch_point
        )
        return br

    a, b = run(), run()
    assert len(a) == len(b)
    assert np.array_equal(a.ts, b.ts)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.state.coeffs, sb.state.coeffs)
        assert sa.energy == sb.energy


# ---------------------------------------------------------------------------
# the two-space reduction


def test_reduction_discrepancy_is_tiny(cs_model, cs_branch_point):
    res = continuation.lyapunov_schmidt_reduce(cs_model, cs_branch_point, 1e-2, 8)
    assert res.kernel_dim == 2
    assert len(res.samples) == 8
    assert res.discrepancy < 1e-8
    for sample in res.samples:
        assert sample.projected_residual_full < 1e-9
        assert sample.projected_residual_restricted < 1e-9
        assert sample.difference <= res.discrepancy + 1e-18


def test_reduction_needs_horizontal_kernel(mixed_model):
    points = continuation.detect_branch_points(mixed_model, 0.5, 1.5)
    assert len(points) == 1
    bp = points[0]
    assert not bp.horizontal  # the t = 1 kernel here is pure fiber
    with pytest.raises(HypothesisViolatedError):
        continuation.lyapunov_schmidt_reduce(mixed_model, bp, 1e-2, 4)


# ---------------------------------------------------------------------------
# seeded fiber-constancy trials


def test_fiber_constancy_trials_pass(cs_model, cs_branch_point):
    report = continuation.verify_fiber_constancy(
        cs_model, cs_branch_point, trials=20, seed=0
    )
    assert report.passed
    assert report.max_fraction < 1e-8
    assert len(report.trials) == 20
    assert all(row.converged and row.nontrivial for row in report.trials)
    assert not any(row.violation for row in report.trials)


def test_fiber_constancy_is_seed_deterministic(cs_model, cs_branch_point):
    a = continuation.verify_fiber_constancy(cs_model, cs_branch_point, 6, seed=42)
    b = continuation.verify_fiber_constancy(cs_model, cs_branch_point, 6, seed=42)
    assert a.max_fraction == b.max_fraction
    for ra, rb in zip(a.trials, b.trials):
        assert ra == rb


def test_fiber_constancy_outside_the_window_is_a_precondition_error(mixed_model):
    # for the interchanged product the window is (0, 1) and the branch
    # point sits exactly at its edge
    points = continuation.detect_branch_points(mixed_model, 0.5, 1.5)
    with pytest.raises(PreconditionError):
        continuation.verify_fiber_constancy(mixed_model, points[0], 5)
