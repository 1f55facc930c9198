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

from conftest import linearization_at_one, newton_solve


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
    below = np.sum(linearization_at_one(cs_model, 0.98) < 0)
    above = np.sum(linearization_at_one(cs_model, 1.02) < 0)
    assert below - above == cs_branch_point.kernel_dim


# ---------------------------------------------------------------------------
# Newton solves


def test_newton_basin_of_the_constant(cs_model):
    start = galerkin.constant_state(cs_model, 0.7, value=0.9)
    sol = newton_solve(cs_model, 0.7, start)
    assert sol.t == 0.7
    assert continuation.residual_norm(cs_model, sol) < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, sol) < 1e-8


def test_newton_rejects_sign_changing_initial(cs_model):
    bad = galerkin.constant_state(cs_model, 0.7)
    bad.coeffs[1, 0] = 15.0
    with pytest.raises(PositivityViolationError):
        newton_solve(cs_model, 0.7, bad)


def test_newton_reports_stagnation_at_the_degenerate_scale(cs_model):
    # at the branch point itself the Jacobian is singular and the damped
    # iteration stalls instead of converging
    near = galerkin.constant_state(cs_model, 1.0)
    near.coeffs[1, 0] = 5.0
    with pytest.raises(NoConvergenceError):
        newton_solve(cs_model, 1.0, near)


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
    orbit = continuation._orbit(cs_model, cs_branch_point, offset)
    unit = offset / np.linalg.norm(offset)
    v = continuation._tangent(cs_model, galerkin.Evaluation(cs_model, state), orbit,
                              np.append(unit, 0.0))

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
    orbit = continuation._orbit(cs_model, cs_branch_point, n_hat)
    ev, mu, _ = continuation._solve_bordered(
        cs_model, c_triv + 1e-2 * n_hat, cs_branch_point.t, orbit,
        np.append(n_hat, 0.0), n_hat @ c_triv + 1e-2,
    )
    state = ev.state
    assert abs(mu) <= 1e-10
    assert continuation.residual_norm(cs_model, state) < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, state) > 1e-3


def dense_rotation(model, orbit):
    """The orbit's rotation generator R as an n x n matrix: its small
    generator repeated within every fiber degree (base circle) or within
    every base mode (fiber circle)."""
    nb, nf = model.shape
    if orbit.on_base:
        return np.kron(orbit.generator, np.eye(nf))
    return np.kron(np.eye(nb), orbit.generator)


def bordered_matrix(model, ev, orbit, row, mu=0.0):
    """The dense square Jacobian of the bordered system at the evaluated
    state `ev`, as the corrector assembled it before it solved by fiber
    degree: unknowns (c, t) and, with an orbit, mu; rows residual + mu R c,
    then with an orbit the phase row, then `row` over (c, t)."""
    n = model.n_modes
    k = 0 if orbit is None else 1
    mat = np.empty((n + 1 + k, n + 1 + k))
    state = ev.state
    mat[:n, :n] = galerkin.residual_jacobian(model, state, ev)
    mat[:n, n] = galerkin.residual_t_derivative(model, state, ev).ravel()
    if orbit is not None:
        mat[:n, :n] += mu * dense_rotation(model, orbit)
        mat[:n, n + 1] = orbit.apply(state.coeffs.ravel())
        mat[n, :n] = orbit.phase
        mat[n, n:] = 0.0
    mat[n + k, :n + 1] = row
    mat[n + k, n + 1:] = 0.0
    return mat


def test_bordered_matrix_matches_a_dense_assembly(cs_model, cs_branch_point):
    # oracle: a fresh zero matrix with the dense generator, filled block by
    # block; the matrix-free linearization applied to the unit vectors must
    # give its columns, and so must the assembly the dense steps below use
    model, bp = cs_model, cs_branch_point
    n, nf = model.n_modes, model.shape[1]
    gen = np.kron(continuation._circle_generator(model.base), np.eye(nf))
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    vecs = continuation.kernel_vectors(model, bp).reshape(2, -1)
    n_hat = (vecs[0] + 2 * vecs[1]) / np.sqrt(5)
    orbit = continuation._orbit(model, bp, n_hat)
    rng = np.random.default_rng(5)
    row = rng.standard_normal(n + 1)

    def dense(state, mu):
        mat = np.zeros((n + 2, n + 2))
        mat[:n, :n] = galerkin.residual_jacobian(model, state) + mu * gen
        mat[:n, n] = galerkin.residual_t_derivative(model, state).ravel()
        mat[:n, n + 1] = gen @ state.coeffs.ravel()
        mat[n, :n] = orbit.phase
        mat[n + 1, :n + 1] = row
        return mat

    a = galerkin.State(bp.t, (c_triv + 1e-2 * n_hat).reshape(model.shape))
    b = galerkin.State(0.9, (c_triv + 1e-2 * rng.standard_normal(n)).reshape(model.shape))
    for state, mu in ((a, 0.3), (b, -0.7)):
        ev = galerkin.Evaluation(model, state)
        want = dense(state, mu)
        assert np.array_equal(bordered_matrix(model, ev, orbit, row, mu), want)
        lin = continuation._bordered_linear(model, ev, orbit, row, mu)
        got = np.stack([lin.apply(e) for e in np.eye(n + 2)], axis=1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _trial_system(model, bp, seed):
    """The corrector's system at a fiber-constancy trial start: the state
    (kernel and fiber parts of norm 1e-2), the orbit and the pin row."""
    rng = np.random.default_rng(seed)
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    n_hat = rng.standard_normal(bp.kernel_dim) @ vecs
    n_hat /= np.linalg.norm(n_hat)
    coeffs = c_triv + 1e-2 * n_hat
    if model.shape[1] > 1:
        fiber = rng.standard_normal(model.shape)
        fiber[:, 0] = 0.0
        coeffs += 1e-2 * fiber.ravel() / np.linalg.norm(fiber)
    orbit = continuation._orbit(model, bp, n_hat)
    return coeffs, orbit, np.append(n_hat, 0.0)


def _dense_and_degree_steps(model, coeffs, t, orbit, row, mu, pre=None, rhs=None):
    """The solution of the bordered system at (coeffs, t, mu) for `rhs`
    (random by default), by the dense LU oracle and by `_solve_linear`, and
    the preconditioner the latter used."""
    ev = galerkin.Evaluation(model, galerkin.State(t, coeffs.reshape(model.shape)))
    if rhs is None:
        rhs = np.random.default_rng(3).standard_normal(model.n_modes + 1 + (orbit is not None))
    dense = np.linalg.solve(bordered_matrix(model, ev, orbit, row, mu), rhs)
    lin = continuation._bordered_linear(model, ev, orbit, row, mu)
    step, pre = continuation._solve_linear(lin, rhs, pre)
    return dense, step, pre


def test_degree_solver_matches_the_dense_step_near_the_fiber_constant_states(
        cs_model, cs_branch_point):
    # a trial start (fiber content 1e-2), then an iterate one dense Newton
    # step on with mu != 0, solved both with a fresh preconditioner and with
    # the one factored at the start, as the corrector reuses it; the start's
    # preconditioner serves the start state at t 1 % off, but for a right
    # side along the kernel at t 10 % off it does not contract and is
    # refactored
    model, bp = cs_model, cs_branch_point
    coeffs, orbit, row = _trial_system(model, bp, seed=2)
    t = float(bp.t)
    dense, step, pre = _dense_and_degree_steps(model, coeffs, t, orbit, row, 0.0)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)

    n = model.n_modes
    moved = coeffs + 0.5 * dense[:n]
    t_mid, mu_mid = t + 1e-3, 1e-3
    for reused in (None, pre):
        dense, step, _ = _dense_and_degree_steps(model, moved, t_mid, orbit, row, mu_mid,
                                                 reused)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)

    dense, step, used = _dense_and_degree_steps(model, coeffs, 1.01 * t, orbit, row, 0.0, pre)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)
    assert used is pre
    along = np.append(continuation.kernel_vectors(model, bp)[0].ravel(), [0.0, 0.0])
    dense, step, used = _dense_and_degree_steps(model, coeffs, 1.1 * t, orbit, row, 0.0,
                                                pre, along)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)
    assert used is not pre


def test_degree_solver_matches_the_dense_step_on_a_fiber_dependent_branch(sphere_sphere):
    # far from the fiber-constant subspace the preconditioner is a poor copy
    # of M and GMRES does the work; the step must still be the dense one
    model = galerkin.build_model(sphere_sphere, 8, 6)
    _, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    _, branch = continuation.follow_branch(model, vertical, 1e-2, -1, 5, 4e-4)
    sample = branch.samples[-1]
    assert sample.fiber_fraction >= 0.1
    row = np.random.default_rng(9).standard_normal(model.n_modes + 1)
    dense, step, _ = _dense_and_degree_steps(model, sample.state.coeffs.ravel(), sample.t,
                                             None, row, 0.0)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_degree_solver_is_the_dense_solve_with_one_fiber_mode(cs_model, cs_branch_point):
    # nf = 1, as on every fiber-constant branch: P = M, and the one Schur
    # solve is the dense LU solve bit for bit, rotation term included
    sub = cs_model.fiber_constant
    coeffs, orbit, row = _trial_system(sub, cs_branch_point, seed=4)
    dense, step, _ = _dense_and_degree_steps(sub, coeffs, float(cs_branch_point.t) + 1e-3,
                                             orbit, row, 0.2)
    assert np.array_equal(step, dense)


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "fiber-constant"])
def test_singular_bordered_systems_raise_typed_errors(cs_model, cs_branch_point, restricted):
    # a zero pin row makes the bordered matrix singular: the corrector and
    # the tangent raise NoConvergenceError, not numpy's LinAlgError
    model = cs_model.fiber_constant if restricted else cs_model
    coeffs, orbit, row = _trial_system(model, cs_branch_point, seed=6)
    zero = np.zeros_like(row)
    with pytest.raises(NoConvergenceError, match="singular bordered matrix"):
        continuation._solve_bordered(model, coeffs, cs_branch_point.t, orbit, zero, 0.0)
    ev = galerkin.Evaluation(model, galerkin.State(cs_branch_point.t,
                                                   coeffs.reshape(model.shape)))
    with pytest.raises(NoConvergenceError, match="singular tangent system"):
        continuation._tangent(model, ev, orbit, zero)


def test_a_solve_that_stalls_gives_up_when_the_krylov_space_is_spent(
        cs_model, cs_branch_point, monkeypatch):
    # GMRES cycles that make no progress: the solve raises after the order
    # of M Arnoldi steps instead of looping, and the corrector types it
    model = cs_model
    coeffs, orbit, row = _trial_system(model, cs_branch_point, seed=8)
    cycles = []

    def stalled(lin, pre, res, beta, bound, limit):
        cycles.append(limit)
        return np.zeros_like(res), 7

    monkeypatch.setattr(continuation, "_gmres", stalled)
    with pytest.raises(NoConvergenceError, match="Krylov space exhausted"):
        continuation._solve_bordered(model, coeffs, cs_branch_point.t, orbit, row,
                                     row[:-1] @ coeffs)
    size = model.n_modes + 2
    assert cycles == list(range(size, 0, -7))


def test_a_solve_at_the_rounding_floor_of_the_product_is_accepted(cs_model, cs_branch_point):
    # a product whose rounding is 2 ulps of |P| |x|, above the quarter-ulp
    # stop: once a cycle no longer halves the residual, the solve returns
    # within the textbook bound instead of spending the Krylov space
    model = cs_model
    coeffs, orbit, row = _trial_system(model, cs_branch_point, seed=8)
    ev = galerkin.Evaluation(model, galerkin.State(cs_branch_point.t,
                                                   coeffs.reshape(model.shape)))
    lin = continuation._bordered_linear(model, ev, orbit, row)
    pre = continuation._Preconditioner(lin)
    rng = np.random.default_rng(0)

    class Rounded(continuation._Linear):
        def apply(self, x):
            e = rng.standard_normal(len(x))
            scale = 2 * continuation._EPS * pre.norm * np.linalg.norm(x)
            return super().apply(x) + scale * e / np.linalg.norm(e)

    rounded = Rounded(model, ev, lin.cols, lin.rows, lin.corner, lin.orbit, lin.mu)
    rhs = np.random.default_rng(3).standard_normal(lin.size)
    x, _ = continuation._solve_linear(rounded, rhs, pre)
    dense = np.linalg.solve(bordered_matrix(model, ev, orbit, row), rhs)
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)


def _counting_gmres(monkeypatch):
    """Patch `_gmres` to record its Arnoldi steps; returns the record."""
    steps, original = [], continuation._gmres

    def counting(*args):
        step, taken = original(*args)
        steps.append(taken)
        return step, taken

    monkeypatch.setattr(continuation, "_gmres", counting)
    return steps


def test_an_inexact_solve_meets_its_forcing_term_on_the_true_operator(
        cs_model, cs_branch_point, monkeypatch):
    # at a fiber-mixed trial start: rtol = 1e-2 bounds |r - M x| by 1e-2 |r|
    # on the dense M and takes fewer Arnoldi steps than the full solve;
    # rtol = 0 is the dense solve to 1e-9 (observed 3e-12)
    model, bp = cs_model, cs_branch_point
    coeffs, orbit, row = _trial_system(model, bp, seed=2)
    ev = galerkin.Evaluation(model, galerkin.State(bp.t, coeffs.reshape(model.shape)))
    lin = continuation._bordered_linear(model, ev, orbit, row)
    dense = bordered_matrix(model, ev, orbit, row)
    rhs = np.random.default_rng(1).standard_normal(lin.size)
    want = np.linalg.solve(dense, rhs)
    steps = _counting_gmres(monkeypatch)
    taken = []
    for rtol in (1e-2, 0.0):
        steps.clear()
        x, _ = continuation._solve_linear(lin, rhs, None, rtol)
        taken.append(sum(steps))
        if rtol:
            assert np.linalg.norm(rhs - dense @ x) <= rtol * np.linalg.norm(rhs)
            assert np.linalg.norm(x - want) > 1e-9 * np.linalg.norm(want)
        else:
            assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    assert taken[0] < taken[1]


def test_newton_steps_are_solved_to_the_forcing_term(cs_model, cs_branch_point, monkeypatch):
    # the trials' corrector and the complement solves ask each step for
    # min(1e-2, |F|) of |r| (|F| = |r| for the corrector, the projected part
    # of it for the complement); a tangent asks for the full accuracy
    model, bp = cs_model, cs_branch_point
    calls, original = [], continuation._solve_linear

    def recording(lin, r, pre=None, rtol=0.0):
        calls.append((rtol, float(np.linalg.norm(r)), len(lin.corner)))
        return original(lin, r, pre, rtol)

    monkeypatch.setattr(continuation, "_solve_linear", recording)
    continuation.verify_fiber_constancy(model, bp, trials=2, seed=0)
    bordered = list(calls)
    continuation.lyapunov_schmidt_reduce(model, bp, 1e-2, 1)
    complement = calls[len(bordered):]
    assert bordered and complement
    for rtol, r_norm, q in bordered:
        assert q == 2 and rtol == min(continuation._FORCING, r_norm)
    for rtol, r_norm, _ in complement:
        assert 0 < rtol <= min(continuation._FORCING, r_norm)
    calls.clear()
    start = continuation.switch_branch(model, bp, 1e-2)
    continuation.continue_branch(model, start, -1, 2, 4e-4, origin=bp)
    tangents = [rtol for rtol, r_norm, _ in calls if r_norm == 1.0]
    assert len(tangents) >= 3 and set(tangents) == {0.0}


@pytest.fixture(scope="module")
def padded_solution(cs_model, cs_branch_point):
    """A fiber-constant solution of cs_model (a sample of the horizontal
    branch at t = 1, zero-padded) with its evaluation and orbit."""
    model, bp = cs_model, cs_branch_point
    _, branch = continuation.follow_branch(model, bp, 1e-2, -1, 3, 4e-4)
    state = branch.samples[-1].state
    offset = state.coeffs.ravel() - galerkin.constant_state(model, state.t).coeffs.ravel()
    orbit = continuation._orbit(model, bp, offset)
    return galerkin.Evaluation(model, state), orbit


def test_the_first_sweep_is_the_solve_at_a_fiber_constant_solution(
        cs_model, padded_solution, monkeypatch):
    # there every fiber block is J_00 + c_j I and no entry joins two
    # degrees, so P = M up to rounding: P^-1 r meets the quarter-ulp stop
    # (observed 0.002 ulps) and the solve takes no GMRES step
    model = cs_model
    ev, orbit = padded_solution
    rng = np.random.default_rng(4)
    row = rng.standard_normal(model.n_modes + 1)
    lin = continuation._bordered_linear(model, ev, orbit, row)
    pre = continuation._Preconditioner(lin)
    dense = bordered_matrix(model, ev, orbit, row)
    steps = _counting_gmres(monkeypatch)
    for _ in range(3):
        rhs = rng.standard_normal(lin.size)
        x = pre(rhs)
        ulp = continuation._EPS * (pre.norm * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert np.linalg.norm(rhs - dense @ x) <= continuation._BACKWARD_ULPS * ulp
        assert np.array_equal(continuation._solve_linear(lin, rhs, pre)[0], x)
    assert steps == []


def test_the_preconditioner_margin_is_the_eigvalsh_one(cs_model, padded_solution):
    # Lambda_0 + a_m lam_1 / t from the preconditioner's one eigh is the
    # smallest eigenvalue of the dense Jacobian's degree-1 block, and
    # `fiber_margin` at the same state
    model = cs_model
    ev, orbit = padded_solution
    nb, nf = model.shape
    lin = continuation._bordered_linear(model, ev, orbit, np.ones(model.n_modes + 1))
    pre = continuation._Preconditioner(lin)
    jac = galerkin.residual_jacobian(model, ev.state).reshape(nb, nf, nb, nf)
    oracle = np.linalg.eigvalsh(jac[:, 1, :, 1])[0]
    sub = galerkin.Evaluation(model.fiber_constant,
                              galerkin.State(ev.state.t, ev.state.coeffs[:, :1]))
    margin = continuation.fiber_margin(model, sub)
    scale = np.abs(jac).max()
    assert pre.shifted[0, 0] == np.min(pre.shifted)
    assert abs(pre.shifted[0, 0] - oracle) <= 1e-13 * scale
    assert abs(margin - oracle) <= 1e-13 * scale


@pytest.mark.parametrize("defect, match", [
    (0.0, "singular fiber block"),
    (np.nan, "singular fiber block|did not converge"),   # NaN eigenvalues, or eigh refuses
], ids=["zero", "nan"])
def test_a_singular_fiber_block_raises(cs_model, padded_solution, monkeypatch, defect, match):
    # J_00 = -c_1 I makes the degree-1 block exactly singular, and a NaN
    # block has no finite eigenvalues: numpy's LinAlgError, as for a
    # singular Schur system
    model = cs_model
    ev, orbit = padded_solution
    nb = model.shape[0]
    c1 = model.a_m * model.fiber.eigenvalues[1] / ev.state.t
    monkeypatch.setattr(galerkin, "degree_zero_block",
                        lambda m, e: -c1 * np.eye(nb) + defect)
    lin = continuation._bordered_linear(model, ev, orbit, np.ones(model.n_modes + 1))
    with pytest.raises(np.linalg.LinAlgError, match=match):
        continuation._Preconditioner(lin)


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
    rot = continuation._orbit(model, bp, continuation.kernel_vectors(model, bp)[0].ravel())
    gen = dense_rotation(model, rot)
    assert np.array_equal(gen, -gen.T)
    orbit_dir = gen @ state.coeffs.ravel()
    assert np.array_equal(rot.apply(state.coeffs.ravel()), orbit_dir)
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


def test_continuation_evaluates_each_state_once(cs_model, cs_branch_point, monkeypatch):
    # the corrector hands its converged evaluation to the tangent, and the
    # start's residual check and first tangent share one, so no state of a
    # run is put on the quadrature grid twice
    start = continuation.switch_branch(cs_model, cs_branch_point, 1e-2)
    evaluated = []     # the states themselves, so no id is reused in the run

    class Counting(galerkin.Evaluation):
        def __init__(self, model, state):
            evaluated.append(state)
            super().__init__(model, state)

    monkeypatch.setattr(galerkin, "Evaluation", Counting)
    br = continuation.continue_branch(cs_model, start, -1, 5, 4e-4, origin=cs_branch_point)
    assert len(br) == 6
    assert any(s is start for s in evaluated)
    assert len({id(s) for s in evaluated}) == len(evaluated)


# ---------------------------------------------------------------------------
# horizontal branches on the fiber-constant subspace


@pytest.fixture(scope="module")
def small_cs_model(circle_sphere):
    return galerkin.build_model(circle_sphere, 8, 4)


def _only_point(model, t):
    (bp,) = continuation.detect_branch_points(model, t / 2, t)
    assert bp.t == t and bp.subspace == "fiber-constant"
    return bp


@pytest.mark.parametrize("t", [Fraction(1), Fraction(1, 4)], ids=["t=1", "t=1/4"])
def test_fiber_constant_branch_matches_the_dense_one(small_cs_model, t):
    # bounds: 2e-9 in t, 1e-12 in distance and energy (observed at most
    # 1.3e-12, 2.1e-13 and 1.4e-14 here).  The last sample sits 6e-8 from the
    # branch point, where residual roundoff over a small dF/dt leaves t
    # undetermined at the 1e-9 level on either path (8e-9 from bp.t on the
    # dense one at t = 1); there the restricted t must be no further from
    # bp.t than the dense t, give or take 2e-9
    model = small_cs_model
    bp = _only_point(model, t)
    start, branch = continuation.follow_branch(model, bp, 1e-2, -1, 40, 4e-4)
    dense_start = continuation.switch_branch(model, bp, 1e-2)
    dense = continuation.continue_branch(model, dense_start, -1, 40, 4e-4, origin=bp)

    assert start.coeffs.shape == model.shape
    assert not start.coeffs[:, 1:].any()
    assert len(branch) == len(dense) > 10
    assert branch.stop_reason == dense.stop_reason
    assert dense.fiber_margin is None and branch.fiber_margin > 0
    for a, b in zip(branch.samples[:-1], dense.samples):
        assert abs(a.t - b.t) <= 2e-9
    assert (abs(branch.samples[-1].t - float(t))
            <= abs(dense.samples[-1].t - float(t)) + 2e-9)
    for a, b in zip(branch.samples, dense.samples):
        assert abs(a.u_distance - b.u_distance) <= 1e-12
        assert abs(a.energy - b.energy) <= 1e-12
        assert a.fiber_fraction == 0.0
        assert a.residual_norm < continuation.TOL_NEWTON


def test_fiber_blocks_of_the_dense_jacobian(small_cs_model):
    # on a fiber-constant state the dense Jacobian is block-diagonal over the
    # fiber degree j with J_jj = J_0 + (a_m lam_j / t) I; both defects are
    # measured relative to max |J| (observed 7e-17 and 2e-16).  The margin is
    # lambda_min(J_11) at the sample that attains it, so it is compared to
    # the blocks' eigenvalues to the same relative 1e-12
    model = small_cs_model
    nb, nf = model.shape
    _, branch = continuation.follow_branch(model, _only_point(model, Fraction(1)),
                                           1e-2, -1, 40, 4e-4)
    eye = np.eye(nb)
    for sample in branch.samples:
        jac = galerkin.residual_jacobian(model, sample.state).reshape(nb, nf, nb, nf)
        jac0 = galerkin.residual_jacobian(
            model.fiber_constant, galerkin.State(sample.t, sample.state.coeffs[:, :1]))
        scale = np.abs(jac).max()
        off = jac.copy()
        for j in range(nf):
            block = jac[:, j, :, j]
            shift = float(model.a_m) * model.fiber.eigenvalues[j] / sample.t
            assert np.abs(block - (jac0 + shift * eye)).max() <= 1e-12 * scale
            if j >= 1:
                assert branch.fiber_margin <= np.linalg.eigvalsh(block)[0] + 1e-12 * scale
            off[:, j, :, j] = 0.0
        assert np.abs(off).max() <= 1e-12 * scale


def test_fiber_kernels_are_followed_in_the_full_space(sphere_sphere):
    model = galerkin.build_model(sphere_sphere, 8, 6)
    horizontal, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    assert vertical.kernel_modes == ((0, 1),) and vertical.subspace == "full"
    assert horizontal.kernel_modes == ((1, 0),)

    _, branch = continuation.follow_branch(model, vertical, 1e-2, -1, 5, 4e-4)
    assert branch.fiber_margin is None
    assert all(s.fiber_fraction > 0.5 for s in branch.samples)

    _, branch = continuation.follow_branch(model, horizontal, 1e-2, -1, 5, 4e-4)
    assert branch.fiber_margin > 0
    assert all(s.fiber_fraction == 0.0 for s in branch.samples)


def test_margins_read_the_corrector_evaluations(small_cs_model, monkeypatch):
    # follow_branch takes each sample's margin from the evaluation its
    # corrector converged on, with no dense Jacobian; the branch margin is
    # the smallest eigvalsh one over the samples, to 1e-12 relative
    model = small_cs_model
    bp = _only_point(model, Fraction(1))

    def no_dense(*args, **kwargs):
        raise AssertionError("a dense Jacobian was built")

    monkeypatch.setattr(galerkin, "residual_jacobian", no_dense)
    _, branch = continuation.follow_branch(model, bp, 1e-2, -1, 40, 4e-4)
    monkeypatch.undo()
    sub, shift = model.fiber_constant, model.a_m * model.fiber.eigenvalues[1]
    want = min(
        np.linalg.eigvalsh(galerkin.residual_jacobian(
            sub, galerkin.State(s.t, s.state.coeffs[:, :1])))[0] + shift / s.t
        for s in branch.samples)
    assert abs(branch.fiber_margin - want) <= 1e-12 * abs(want)


@pytest.fixture(scope="module")
def ss16_vertical(sphere_sphere):
    """S^2 x S^2 at 16x8 and its vertical branch point t = 2, followed in
    the full space (nf = 8)."""
    model = galerkin.build_model(sphere_sphere, 16, 8)
    _, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    assert vertical.kernel_modes == ((0, 1),) and vertical.t == 2
    return model, vertical


def _follow_counting(model, bp, monkeypatch, rebuild=False):
    """The vertical branch, 40 steps toward u = 1, and the number of
    preconditioners built; with `rebuild` every tangent builds its own."""
    builds = []
    original = continuation._Preconditioner.__init__

    def counting(self, lin):
        builds.append(lin.ev)
        original(self, lin)

    monkeypatch.setattr(continuation._Preconditioner, "__init__", counting)
    if rebuild:
        tangent = continuation._tangent
        monkeypatch.setattr(continuation, "_tangent",
                            lambda m, ev, orbit, row, pre=None: tangent(m, ev, orbit, row))
    _, branch = continuation.follow_branch(model, bp, 1e-2, -1, 40, 4e-4)
    monkeypatch.undo()
    return branch, len(builds)


def test_the_tangent_keeps_the_corrector_preconditioner(ss16_vertical, monkeypatch):
    # one preconditioner per continuation step, the corrector's, which the
    # tangent at its solution keeps; the switch and the first tangent build
    # one each
    branch, builds = _follow_counting(*ss16_vertical, monkeypatch)
    _, rebuilt = _follow_counting(*ss16_vertical, monkeypatch, rebuild=True)
    steps = len(branch) - 1
    assert steps == 40
    assert builds <= steps + 2 < rebuilt


def test_rounding_at_u_equal_one_is_no_turnaround(ss16_vertical, monkeypatch):
    # the branch reaches u = 1 after 25 steps and the continuation runs on
    # along the trivial branch, where the distances are rounding (about
    # 1e-14): their order is no turnaround, so the stop is the same whether
    # the tangents keep the corrector's preconditioner or rebuild it, and
    # the same when that rounding grows at every step
    kept, _ = _follow_counting(*ss16_vertical, monkeypatch)
    rebuilt, _ = _follow_counting(*ss16_vertical, monkeypatch, rebuild=True)
    assert kept.stop_reason == rebuilt.stop_reason == "steps-exhausted"
    assert len(kept) == len(rebuilt) == 41
    assert kept.distances[-1] < continuation._NONTRIVIAL_NORM

    seen, distance = [], galerkin.u_distance

    def growing(model, state):
        d = distance(model, state)
        if d < continuation._NONTRIVIAL_NORM:
            seen.append(d)
            d += 1e-15 * len(seen)
        return d

    monkeypatch.setattr(galerkin, "u_distance", growing)
    noisy, _ = _follow_counting(*ss16_vertical, monkeypatch)
    assert len(seen) >= 10
    assert (noisy.stop_reason, len(noisy)) == ("steps-exhausted", 41)


# ---------------------------------------------------------------------------
# the two-space reduction


def test_reduction_discrepancy_is_tiny(cs_model, cs_branch_point):
    res = continuation.lyapunov_schmidt_reduce(cs_model, cs_branch_point, 1e-2, 8)
    assert res.kernel_dim == 2
    assert len(res.samples) == 8
    assert res.discrepancy < 1e-8
    assert res.fiber_margin > 0
    for sample in res.samples:
        assert sample.projected_residual_full < 1e-9
        assert sample.projected_residual_restricted < 1e-9
        assert sample.difference <= res.discrepancy + 1e-18


def _oracle_complement_solve(model, t, base, idx):
    """The complement Newton on the full model's Jacobian sliced to `idx`."""
    v = np.zeros(len(idx))
    for _ in range(continuation.MAX_NEWTON_ITER):
        c = base.copy()
        c[idx] += v
        state = galerkin.State(t, c.reshape(model.shape))
        res = galerkin.residual(model, state).ravel()[idx]
        if np.linalg.norm(res) < continuation.TOL_COMPLEMENT:
            return v
        v = v - np.linalg.solve(galerkin.residual_jacobian(model, state)[np.ix_(idx, idx)], res)
    raise AssertionError("oracle complement solve did not converge")


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_restricted_complement_solve_matches_the_full_model(cs_model, which):
    # the restricted solve runs on model.fiber_constant; the residual leaves
    # the fiber-constant subspace invariant, so it is the equation the full
    # model's sliced Jacobian solves (observed: Jacobians 3e-16 relative,
    # solutions 3e-15 at t = 1/225 and 9e-16 at t = 1)
    model = cs_model
    bp = continuation.detect_branch_points(model, Fraction(1, 1000), 2)[which]
    nb, nf = model.shape
    fc = [i for i in range(nb) if (i, 0) not in set(bp.kernel_modes)]
    fc_flat = [i * nf for i in fc]
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    base = galerkin.constant_state(model, bp.t).coeffs.ravel() + 1e-2 * vecs[0]

    state = galerkin.State(bp.t, base.reshape(model.shape))
    jac = galerkin.residual_jacobian(model, state)[np.ix_(fc_flat, fc_flat)]
    sub = galerkin.residual_jacobian(
        model.fiber_constant, galerkin.State(bp.t, state.coeffs[:, :1]))[np.ix_(fc, fc)]
    assert np.abs(sub - jac).max() <= 1e-12 * np.abs(jac).max()

    v, res, _ = continuation._complement_solve(model.fiber_constant, bp.t,
                                               state.coeffs[:, :1], fc)
    assert res < continuation.TOL_COMPLEMENT
    assert np.abs(v - _oracle_complement_solve(model, bp.t, base, fc_flat)).max() <= 1e-12


def test_the_verify_path_factors_no_n_by_n_matrix(cs_model, cs_branch_point, monkeypatch):
    # the trials and both reductions solve by fiber degree: no numpy.linalg
    # solve, inv, eigh, lstsq or svd call sees a matrix with a side of
    # n_modes or more, and no dense Jacobian is built (the margins read the
    # restricted solve's evaluation)
    model = cs_model
    n, nb = model.n_modes, model.shape[0]
    sides = []
    for name in ("solve", "inv", "eigh", "lstsq", "svd"):
        def spy(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            sides.append((_name, max(np.shape(a)[-2:])))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    jacobians = []
    original = galerkin.residual_jacobian

    def counting(m, state, *args, **kwargs):
        jacobians.append(m)
        return original(m, state, *args, **kwargs)

    monkeypatch.setattr(galerkin, "residual_jacobian", counting)
    continuation.verify_fiber_constancy(model, cs_branch_point, trials=3, seed=0)
    continuation.lyapunov_schmidt_reduce(model, cs_branch_point, 1e-2, 2)
    assert {name for name, _ in sides} == {"solve", "inv", "eigh"}
    assert max(side for _, side in sides) < n
    assert jacobians == []
    assert max(side for _, side in sides) >= nb


def test_the_full_reduction_starts_off_the_fiber_constant_subspace(cs_model, cs_branch_point,
                                                                   monkeypatch):
    # from v = 0 the full complement solve would stay fiber-constant and
    # agree with the restricted one by construction; it starts from a seeded
    # fiber-mixed v of the sample radius and must come back to it
    model, bp = cs_model, cs_branch_point
    nf = model.shape[1]
    starts = []
    original = continuation._complement_solve

    def recording(m, t, base, indices, start=None):
        if m is model:
            full = np.zeros(model.n_modes)
            full[indices] = start
            starts.append(full.reshape(model.shape))
        return original(m, t, base, indices, start)

    monkeypatch.setattr(continuation, "_complement_solve", recording)
    results = [continuation.lyapunov_schmidt_reduce(model, bp, 1e-2, 2, seed=s)
               for s in (0, 0, 1)]
    assert len(starts) == 6
    for start in starts:
        assert np.linalg.norm(start) == pytest.approx(1e-2, rel=1e-12)
        assert np.linalg.norm(start[:, 1:]) > 0.5 * np.linalg.norm(start)
    assert np.array_equal(starts[0], starts[2]) and not np.allclose(starts[0], starts[4])
    assert results[0].discrepancy == results[1].discrepancy
    for res in results:
        assert res.discrepancy < 1e-12
        for sample in res.samples:
            assert np.abs(sample.alpha_full[:, 1:]).max() <= 1e-12
    assert nf > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_damped_complement_solve_converges_from_a_far_start(cs_model, seed):
    # at sample radius 1 the full complement solve starts far from its
    # solution: with full Newton steps none of these three seeds converged
    # in 50 steps (residuals 4.2e-4, 4.5e-4 and 1.1e-10); the damped steps
    # of the shared Newton loop reach it (observed discrepancy <= 6.6e-14)
    (bp,) = continuation.detect_branch_points(cs_model, 0.2, 0.3)
    assert bp.t == Fraction(1, 4)
    res = continuation.lyapunov_schmidt_reduce(cs_model, bp, 1.0, 2, seed=seed)
    assert res.passed
    assert res.discrepancy < 1e-12


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


def test_fiber_constancy_needs_a_nonzero_amplitude(cs_model, cs_branch_point):
    # amplitude 0 pins every trial to u = 1, so nothing would be tested; a
    # negative amplitude starts on the other side of the branch
    with pytest.raises(InvalidArgumentError, match="amplitude"):
        continuation.verify_fiber_constancy(cs_model, cs_branch_point, 2, amplitude=0.0)
    report = continuation.verify_fiber_constancy(cs_model, cs_branch_point, 2,
                                                 amplitude=-1e-2)
    assert report.passed
    assert all(row.converged and row.nontrivial for row in report.trials)


def test_fiber_constancy_outside_the_window_is_a_precondition_error(mixed_model):
    # for the interchanged product the window is (0, 1) and the branch
    # point sits exactly at its edge
    points = continuation.detect_branch_points(mixed_model, 0.5, 1.5)
    with pytest.raises(PreconditionError):
        continuation.verify_fiber_constancy(mixed_model, points[0], 5)
