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
    CscbifError,
    EmptyBranchError,
    HypothesisViolatedError,
    InvalidArgumentError,
    NoConvergenceError,
    NondiscreteDegeneracyError,
    PositivityViolationError,
    PreconditionError,
)

from conftest import (
    linearization_at_one,
    newton_solve,
    one_evaluation,
    one_state,
    per_member,
    solve_bordered,
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


@pytest.mark.parametrize("family, window", [
    ("circle_sphere", (Fraction(1, 1000), 2)),
    ("circle_sphere", (0.05, 1.5)),
    ("sphere_sphere", (Fraction(3, 10), 10)),
], ids=["cs-config", "cs-float", "ss"])
def test_detection_solves_only_the_pairs_below_the_truncation_heights(
        family, window, request, monkeypatch):
    # no pair above `variation.pair_truncation_bounds` has a root in the
    # window: at 16x8 the list equals the one from every resolved pair, from
    # fewer solved pairs (observed 30 and 8 of 247, and 5 of 127)
    fam = request.getfixturevalue(family)
    model = galerkin.build_model(fam, 16, 8)
    every = [continuation.BranchPoint(t, tuple(modes)) for t, modes in variation.window_roots(
        fam, ((mode, b, lam) for mode, (b, lam) in model.eigentable()), *window)]
    solved, roots = [], variation.degeneracy_roots

    def counting(fam, b, lam):
        solved.append((b, lam))
        return roots(fam, b, lam)

    monkeypatch.setattr(variation, "degeneracy_roots", counting)
    assert continuation.detect_branch_points(model, *window) == every
    assert every and 0 < len(solved) < (model.n_modes - 1) // 2


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
    assert sol.t[0] == 0.7
    assert galerkin.Evaluation(cs_model, sol).residual_norm[0] < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, sol)[0] < 1e-8


def test_newton_rejects_sign_changing_initial(cs_model):
    bad = galerkin.constant_state(cs_model, 0.7)
    bad.coeffs[0, 1, 0] = 15.0
    with pytest.raises(PositivityViolationError):
        newton_solve(cs_model, 0.7, bad)


def test_newton_reports_stagnation_at_the_degenerate_scale(cs_model):
    # at the branch point itself the Jacobian is singular and the damped
    # iteration stalls instead of converging
    near = galerkin.constant_state(cs_model, 1.0)
    near.coeffs[0, 1, 0] = 5.0
    with pytest.raises(NoConvergenceError):
        newton_solve(cs_model, 1.0, near)


# ---------------------------------------------------------------------------
# branch switching


def test_switch_produces_nontrivial_solution(cs_model, cs_branch_point):
    state = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)[0].state
    # the solve relaxes t along the branch, which bends at second order
    assert abs(state.t[0] - cs_branch_point.t) < 1e-4
    assert galerkin.Evaluation(cs_model, state).residual_norm[0] < continuation.TOL_NEWTON
    dist = galerkin.u_distance(cs_model, state)[0]
    assert 1e-3 < dist < 1e-1
    assert galerkin.fiber_energy_fraction(state)[0] < 1e-15


def test_switch_works_at_the_second_instant(cs_model):
    points = continuation.detect_branch_points(cs_model, 0.2, 0.3)
    assert [bp.t for bp in points] == [Fraction(1, 4)]
    state = continuation.switch_branch(cs_model, [points[0]], 5e-3)[0].state
    assert galerkin.Evaluation(cs_model, state).residual_norm[0] < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, state)[0] > 1e-3


def test_switch_needs_kernel_modes(cs_model):
    fake = continuation.BranchPoint(t=0.9, kernel_modes=())
    with pytest.raises(PreconditionError):
        continuation.switch_branch(cs_model, [fake], 1e-2)


# ---------------------------------------------------------------------------
# the bordered corrector


def test_bordered_tangent_matches_the_svd_null_vector(cs_model, cs_branch_point):
    state = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)[0].state
    offset = state.coeffs.ravel() - galerkin.constant_state(cs_model, 1.0).coeffs.ravel()
    orbit = continuation._orbit(cs_model, [cs_branch_point], offset[None])
    unit = offset / np.linalg.norm(offset)
    (v,), _ = continuation._tangent(galerkin.Evaluation(cs_model, state), orbit,
                                    np.append(unit, 0.0)[None])

    # oracle: the null vector of the extended Jacobian whose extra row fixes
    # the phase, the kernel-span direction orthogonal to the offset's kernel part
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point).reshape(2, -1)
    a, b = vecs @ offset
    phase = (-b * vecs[0] + a * vecs[1]) / np.hypot(a, b)
    n = cs_model.n_modes
    ext = np.zeros((n + 1, n + 1))
    ev = galerkin.Evaluation(cs_model, state)
    ext[:n, :n] = galerkin.residual_jacobian(ev)[0]
    ext[:n, n] = galerkin.residual_t_derivative(ev).ravel()
    ext[n, :n] = phase
    null = np.linalg.svd(ext)[2][-1]

    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert abs(1 - abs(v @ null)) <= 1e-10
    assert v[:n] @ unit > 0


def test_unfolding_parameter_vanishes_on_solutions(cs_model, cs_branch_point):
    c_triv = galerkin.constant_state(cs_model, cs_branch_point.t).coeffs.ravel()
    vecs = continuation.kernel_vectors(cs_model, cs_branch_point).reshape(2, -1)
    n_hat = (vecs[0] + 2 * vecs[1]) / np.sqrt(5)
    orbit = continuation._orbit(cs_model, [cs_branch_point], n_hat[None])
    ev, mu = solve_bordered(
        cs_model, c_triv + 1e-2 * n_hat, cs_branch_point.t, orbit,
        np.append(n_hat, 0.0), n_hat @ c_triv + 1e-2,
    )
    state = ev.state
    assert abs(mu) <= 1e-10
    assert galerkin.Evaluation(cs_model, state).residual_norm[0] < continuation.TOL_NEWTON
    assert galerkin.u_distance(cs_model, state)[0] > 1e-3


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
    mat[:n, :n] = galerkin.residual_jacobian(ev)[0]
    mat[:n, n] = galerkin.residual_t_derivative(ev).ravel()
    if orbit is not None:
        mat[:n, :n] += mu * dense_rotation(model, orbit)
        mat[:n, n + 1] = orbit.apply(state.coeffs.reshape(1, n))[0]
        mat[n, :n] = orbit.phase[0]
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
    orbit = continuation._orbit(model, [bp], n_hat[None])
    rng = np.random.default_rng(5)
    row = rng.standard_normal(n + 1)

    def dense(state, mu):
        mat = np.zeros((n + 2, n + 2))
        ev = galerkin.Evaluation(model, state)
        mat[:n, :n] = galerkin.residual_jacobian(ev)[0] + mu * gen
        mat[:n, n] = galerkin.residual_t_derivative(ev).ravel()
        mat[:n, n + 1] = gen @ state.coeffs.ravel()
        mat[n, :n] = orbit.phase[0]
        mat[n + 1, :n + 1] = row
        return mat

    a = one_state(bp.t, (c_triv + 1e-2 * n_hat).reshape(model.shape))
    b = one_state(0.9, (c_triv + 1e-2 * rng.standard_normal(n)).reshape(model.shape))
    for state, mu in ((a, 0.3), (b, -0.7)):
        ev = galerkin.Evaluation(model, state)
        want = dense(state, mu)
        assert np.array_equal(bordered_matrix(model, ev, orbit, row, mu), want)
        lin = continuation._bordered_linear(ev, orbit, row[None], np.array([mu]))
        got = np.stack([lin.apply(e[None])[0] for e in np.eye(n + 2)], axis=1)
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
    orbit = continuation._orbit(model, [bp], n_hat[None])
    return coeffs, orbit, np.append(n_hat, 0.0)


def _dense_and_degree_steps(model, coeffs, t, orbit, row, mu, pre=None, rhs=None):
    """The solution of the bordered system at (coeffs, t, mu) for `rhs`
    (random by default), by the dense LU oracle and by `_solve_linear`, and
    the preconditioner the latter used."""
    ev = one_evaluation(model, t, coeffs.reshape(model.shape))
    if rhs is None:
        rhs = np.random.default_rng(3).standard_normal(model.n_modes + 1 + (orbit is not None))
    dense = np.linalg.solve(bordered_matrix(model, ev, orbit, row, mu), rhs)
    lin = continuation._bordered_linear(ev, orbit, row[None], np.array([mu]))
    step, pre, (error,) = continuation._solve_linear(lin, rhs[None], pre)
    if error is not None:
        raise error
    return dense, step[0], pre


def test_degree_solver_matches_the_dense_step_near_the_fiber_constant_states(
        cs_model, cs_branch_point):
    # a trial start (fiber content 1e-2), then an iterate one dense Newton
    # step on with mu != 0, solved both with a fresh preconditioner and with
    # the one factored at the start, as the corrector reuses it; the start's
    # preconditioner is kept as it stands for the start state at t 1 % off,
    # and for a right side along the kernel at t 10 % off
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
    assert used is pre


def test_degree_solver_matches_the_dense_step_on_a_fiber_dependent_branch(sphere_sphere):
    # far from the fiber-constant subspace the preconditioner is a poor copy
    # of M and GMRES does the work; the step must still be the dense one
    model = galerkin.build_model(sphere_sphere, 8, 6)
    _, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    (branch,) = continuation.follow_branch(model, [vertical], 1e-2, -1, 5, 4e-4)
    sample = branch.samples[-1:]
    assert sample.fiber_fraction[0] >= 0.1
    row = np.random.default_rng(9).standard_normal(model.n_modes + 1)
    dense, step, _ = _dense_and_degree_steps(model, sample.state.coeffs.ravel(), sample.t[0],
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
        solve_bordered(model, coeffs, cs_branch_point.t, orbit, zero, 0.0)
    ev = one_evaluation(model, cs_branch_point.t, coeffs.reshape(model.shape))
    with pytest.raises(NoConvergenceError, match="singular tangent system"):
        raise continuation._tangent(ev, orbit, zero[None])[1][0]


def test_a_solve_that_stalls_gives_up_when_the_krylov_space_is_spent(
        cs_model, cs_branch_point, monkeypatch):
    # GMRES cycles that make no progress: the solve raises after the order
    # of M Arnoldi steps instead of looping, and the corrector types it
    model = cs_model
    coeffs, orbit, row = _trial_system(model, cs_branch_point, seed=8)
    cycles = []

    def stalled(operator, res, beta, bound, limit):
        cycles.extend(limit.tolist())
        return np.zeros_like(res), np.full(len(res), 7), [None] * len(res)

    monkeypatch.setattr(continuation, "_gmres", stalled)
    with pytest.raises(NoConvergenceError, match="Krylov space exhausted"):
        solve_bordered(model, coeffs, cs_branch_point.t, orbit, row, row[:-1] @ coeffs)
    size = model.n_modes + 2
    assert cycles == list(range(size, 0, -7))


def test_a_solve_at_the_rounding_floor_of_the_product_is_accepted(cs_model, cs_branch_point):
    # a product whose rounding is 2 ulps of |P| |x|, above the quarter-ulp
    # stop: once a cycle no longer halves the residual, the solve returns
    # within the textbook bound instead of spending the Krylov space
    model = cs_model
    coeffs, orbit, row = _trial_system(model, cs_branch_point, seed=8)
    ev = one_evaluation(model, cs_branch_point.t, coeffs.reshape(model.shape))
    lin = continuation._bordered_linear(ev, orbit, row[None])
    pre = continuation._Preconditioner(lin)
    rng = np.random.default_rng(0)

    class Rounded(continuation._Linear):
        def apply(self, x):
            e = rng.standard_normal(x.shape[-1])
            scale = 2 * continuation._EPS * pre.norm[0] * np.linalg.norm(x)
            return super().apply(x) + scale * e / np.linalg.norm(e)

    rounded = Rounded(lin.ev, lin.cols, lin.rows, lin.corner, lin.orbit, lin.mu)
    rhs = np.random.default_rng(3).standard_normal(lin.size)
    x = continuation._solve_linear(rounded, rhs[None], pre)[0][0]
    dense = np.linalg.solve(bordered_matrix(model, ev, orbit, row), rhs)
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)


def _counting_gmres(monkeypatch):
    """Patch `_gmres` to record its Arnoldi steps; returns the record."""
    steps, original = [], continuation._gmres

    def counting(*args):
        step, taken, failed = original(*args)
        steps.extend(taken.tolist())
        return step, taken, failed

    monkeypatch.setattr(continuation, "_gmres", counting)
    return steps


def test_an_inexact_solve_meets_its_forcing_term_on_the_true_operator(
        cs_model, cs_branch_point, monkeypatch):
    # at a fiber-mixed trial start: rtol = 1e-2 bounds |r - M x| by 1e-2 |r|
    # on the dense M and takes fewer Arnoldi steps than the full solve;
    # rtol = 0 is the dense solve to 1e-9 (observed 3e-12)
    model, bp = cs_model, cs_branch_point
    coeffs, orbit, row = _trial_system(model, bp, seed=2)
    ev = one_evaluation(model, bp.t, coeffs.reshape(model.shape))
    lin = continuation._bordered_linear(ev, orbit, row[None])
    dense = bordered_matrix(model, ev, orbit, row)
    rhs = np.random.default_rng(1).standard_normal(lin.size)
    want = np.linalg.solve(dense, rhs)
    steps = _counting_gmres(monkeypatch)
    taken = []
    for rtol in (1e-2, 0.0):
        steps.clear()
        x = continuation._solve_linear(lin, rhs[None], None, rtol)[0][0]
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
        for r_i, rtol_i in zip(r, np.broadcast_to(rtol, len(r))):
            calls.append((float(rtol_i), float(np.linalg.norm(r_i)), lin.corner.shape[-1]))
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
    (start,) = continuation.switch_branch(model, [bp], 1e-2)
    continuation.continue_branch(model, start, -1, 2, 4e-4, origins=[bp])
    tangents = [rtol for rtol, r_norm, _ in calls if r_norm == 1.0]
    assert len(tangents) >= 3 and set(tangents) == {0.0}


@pytest.fixture(scope="module")
def padded_solution(cs_model, cs_branch_point):
    """A fiber-constant solution of cs_model (a sample of the horizontal
    branch at t = 1, zero-padded) with its evaluation and orbit."""
    model, bp = cs_model, cs_branch_point
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 3, 4e-4)
    state = branch.samples[-1:].state
    offset = state.coeffs.ravel() - galerkin.constant_state(model, state.t).coeffs.ravel()
    orbit = continuation._orbit(model, [bp], offset[None])
    return galerkin.Evaluation(model, state), orbit


def test_the_first_sweep_is_the_solve_at_a_constant_state(cs_model, padded_solution,
                                                          monkeypatch):
    # at u = 1 the degree-0 block is diagonal (up to quadrature rounding)
    # and no entry joins two degrees, so P = M: P^-1 r meets the quarter-ulp
    # stop (observed 0.016 ulps at most) and the solve takes no GMRES step.
    # At a fiber-constant solution off u = 1, P keeps only the diagonal of
    # each degree-j block, and GMRES takes a few steps to the quarter-ulp
    # stop (observed 3 a solve, and 0.12 ulps at most)
    model = cs_model
    rng = np.random.default_rng(4)
    steps = _counting_gmres(monkeypatch)
    for t in (0.01, 0.7, 1.3):
        ev = galerkin.Evaluation(model, galerkin.constant_state(model, [t]))
        row = rng.standard_normal(model.n_modes + 1)
        lin = continuation._bordered_linear(ev, None, row[None])
        pre = continuation._Preconditioner(lin)
        dense = bordered_matrix(model, ev, None, row)
        rhs = rng.standard_normal(lin.size)
        x = pre(rhs[None])[0]
        ulp = continuation._EPS * (pre.norm[0] * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert np.linalg.norm(rhs - dense @ x) <= continuation._BACKWARD_ULPS * ulp
        assert np.array_equal(continuation._solve_linear(lin, rhs[None], pre)[0][0], x)
    assert steps == []
    ev, orbit = padded_solution
    row = rng.standard_normal(model.n_modes + 1)
    lin = continuation._bordered_linear(ev, orbit, row[None])
    dense = bordered_matrix(model, ev, orbit, row)
    for _ in range(3):
        rhs = rng.standard_normal(lin.size)
        (x,), pre, (error,) = continuation._solve_linear(lin, rhs[None])
        ulp = continuation._EPS * (pre.norm[0] * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert error is None
        assert np.linalg.norm(rhs - dense @ x) <= continuation._BACKWARD_ULPS * ulp
    assert sum(steps) <= 15


def test_the_fiber_margin_is_the_smallest_degree_one_eigenvalue(cs_model, padded_solution):
    # `fiber_margin` at a fiber-constant solution, read from the restricted
    # evaluation, is the smallest eigenvalue of the dense Jacobian's
    # degree-1 block there
    model = cs_model
    ev, _ = padded_solution
    nb, nf = model.shape
    jac = galerkin.residual_jacobian(ev)[0].reshape(nb, nf, nb, nf)
    oracle = np.linalg.eigvalsh(jac[:, 1, :, 1])[0]
    sub = galerkin.Evaluation(model.fiber_constant,
                              galerkin.State(ev.state.t, ev.state.coeffs[:, :, :1]))
    (margin,) = continuation.fiber_margin(model, sub)
    assert abs(margin - oracle) <= 1e-13 * np.abs(jac).max()


@pytest.mark.parametrize("defect, match", [
    (0.0, "singular fiber block"),
    (np.nan, "singular fiber block"),
], ids=["zero", "nan"])
def test_a_singular_fiber_block_raises(cs_model, padded_solution, monkeypatch, defect, match):
    # J_00 = -c_1 I makes the diagonal of the degree-1 block exactly zero,
    # and a NaN block has no finite diagonal: numpy's LinAlgError, as for a
    # singular Schur system
    model = cs_model
    ev, orbit = padded_solution
    nb = model.shape[0]
    c1 = model.a_m * model.fiber.eigenvalues[1] / ev.state.t[0]
    monkeypatch.setattr(galerkin.Evaluation, "degree_zero_block",
                        property(lambda e: (-c1 * np.eye(nb) + defect)[None]))
    lin = continuation._bordered_linear(ev, orbit, np.ones((1, model.n_modes + 1)))
    (error,) = continuation._Preconditioner(lin).failed
    with pytest.raises(np.linalg.LinAlgError, match=match):
        raise error


@pytest.mark.parametrize("routine", ["inv", "eigh"])
def test_a_failing_member_of_a_factored_stack_fails_only_itself(routine):
    # numpy raises for a whole stack when one member fails (a zero row for
    # inv, NaN entries for eigh); the other members keep their own results
    # bit for bit, and the failing one gets the error it raises alone
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((3, 5, 5))
    mats = mats + mats.transpose(0, 2, 1)
    if routine == "inv":
        mats[1, 2] = 0.0
    else:
        mats[1] = np.nan
    call = getattr(np.linalg, routine)
    failed = [None] * 3
    out = continuation._factor(call, failed, mats)
    with pytest.raises(np.linalg.LinAlgError) as alone:
        call(mats[1])
    assert failed[0] is None and failed[2] is None
    assert str(failed[1]) == str(alone.value)
    def parts(result):
        return result if isinstance(result, tuple) else (result,)

    for i in (0, 2):
        for got, want in zip(parts(out), parts(call(mats[i]))):
            assert np.array_equal(got[i], want)


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
    state = continuation.switch_branch(model, [bp], 1e-2)[0].state
    rot = continuation._orbit(model, [bp],
                              continuation.kernel_vectors(model, bp)[:1].reshape(1, -1))
    gen = dense_rotation(model, rot)
    assert np.array_equal(gen, -gen.T)
    orbit_dir = gen @ state.coeffs.ravel()
    assert np.array_equal(rot.apply(state.coeffs.reshape(1, -1))[0], orbit_dir)
    jac = galerkin.residual_jacobian(galerkin.Evaluation(model, state))[0]
    assert np.linalg.norm(orbit_dir) > 1e-3
    assert np.linalg.norm(jac @ orbit_dir) <= 1e-9 * np.linalg.norm(orbit_dir)


def test_unsupported_kernel_is_a_precondition_error(cs_model):
    three = continuation.BranchPoint(t=1.0, kernel_modes=((1, 0), (2, 0), (3, 0)))
    with pytest.raises(PreconditionError):
        continuation.switch_branch(cs_model, [three], 1e-2)


def test_branch_converges_under_base_refinement(circle_sphere):
    # the t = 1 branch carries only low circle frequencies, so doubling N_b
    # changes it at roundoff level; observed 2.2e-14 in t and 5.3e-17 in
    # distance, bounded here 100 times above that
    bp = continuation.BranchPoint(t=1.0, kernel_modes=((1, 0), (2, 0)))
    last = []
    for n_b in (16, 32):
        model = galerkin.build_model(circle_sphere, n_b, 8)
        (start,) = continuation.switch_branch(model, [bp], 1e-2)
        branch = continuation.continue_branch(model, start, -1, 10, 4e-4, origins=[bp])
        assert len(branch) == 11
        last.append(branch.samples[-1:])
    coarse, fine = last
    assert abs(coarse.t[0] - fine.t[0]) <= 2.2e-12
    assert abs(coarse.u_distance[0] - fine.u_distance[0]) <= 5.3e-15


# ---------------------------------------------------------------------------
# continuation


@pytest.fixture(scope="module")
def shrinking_branch(cs_model, cs_branch_point):
    (start,) = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
    return continuation.continue_branch(
        cs_model, start, -1, 40, 4e-4, origins=[cs_branch_point]
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
    for residual_norm, fiber_fraction in zip(br.samples.residual_norm, br.samples.fiber_fraction):
        assert residual_norm < continuation.TOL_NEWTON
        assert fiber_fraction < 1e-10
    ts, coeffs = br.ts, br.samples.state.coeffs
    for i in range(1, len(br)):
        gap = np.hypot(
            ts[i] - ts[i - 1], np.linalg.norm(coeffs[i] - coeffs[i - 1])
        )
        assert gap < 2 * 4e-4


def test_branch_energy_gradient_vanishes_along_tangent(cs_model, shrinking_branch):
    # at converged samples the u-directional derivative of the energy is
    # zero to solver tolerance in any direction; probe a random one
    rng = np.random.default_rng(23)
    h = 1e-6
    samples = shrinking_branch.samples
    for t, coeffs in zip(samples.t[:3], samples.state.coeffs[:3]):
        direction = rng.standard_normal(cs_model.shape)
        direction /= np.linalg.norm(direction)
        plus = one_evaluation(cs_model, t, coeffs + h * direction)
        minus = one_evaluation(cs_model, t, coeffs - h * direction)
        fd = (galerkin.energy(plus)[0] - galerkin.energy(minus)[0]) / (2 * h)
        assert abs(fd) < 1e-6


def test_growing_branch_stops_at_positivity(cs_model, cs_branch_point):
    (start,) = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
    br = continuation.continue_branch(
        cs_model, start, +1, 400, 0.1, origins=[cs_branch_point]
    )
    assert br.stop_reason == "positivity-stop"
    assert br.distances[-1] > 1.0
    last = galerkin.grid_values(cs_model, br.samples[-1:].state)
    assert 0 < last.min() < 0.05


def test_absurd_step_yields_no_branch(cs_model, cs_branch_point):
    (start,) = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
    with pytest.raises(EmptyBranchError):
        raise continuation.continue_branch(cs_model, start, +1, 5, 50.0,
                                           origins=[cs_branch_point]).errors[0]


def test_continuation_argument_validation(cs_model, cs_branch_point):
    (start,) = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
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
        (start,) = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
        br = continuation.continue_branch(
            cs_model, start, -1, 15, 4e-4, origins=[cs_branch_point]
        )
        return br

    a, b = run(), run()
    assert len(a) == len(b)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.samples.state.coeffs, b.samples.state.coeffs)
    assert np.array_equal(a.samples.energy, b.samples.energy)


def test_continuation_evaluates_each_state_once(cs_model, cs_branch_point, monkeypatch):
    # the start is put on the quadrature grid once, for its residual check
    # and first tangent, and so is every corrector iterate, the tangent
    # reading its corrector's converged stack; a branch keeps its samples as
    # (c, t) rows, which it evaluates once more, as one stack, when it
    # returns, so that no corrector stack outlives its step
    start = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)[0].state
    evaluated = []     # the states themselves, so no id is reused in the run

    class Counting(galerkin.Evaluation):
        def __init__(self, model, state):
            evaluated.append(state)
            super().__init__(model, state)

    def rows(state):
        return [(t, c.tobytes()) for t, c in zip(state.t.tolist(), state.coeffs)]

    monkeypatch.setattr(galerkin, "Evaluation", Counting)
    br = continuation.continue_branch(cs_model, start, -1, 5, 4e-4, origins=[cs_branch_point])
    *iterates, final = evaluated
    assert len(br) == 6
    assert iterates[0] is start and br.samples.state is final
    earlier = [row for state in iterates for row in rows(state)]
    assert len(set(earlier)) == len(earlier) > len(br)
    assert rows(final)[0] == rows(start)[0] and set(rows(final)) <= set(earlier)
    assert len(set(rows(final))) == len(br)


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
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 40, 4e-4)
    start = branch.samples.state.coeffs[0]
    (dense_start,) = continuation.switch_branch(model, [bp], 1e-2)
    dense = continuation.continue_branch(model, dense_start, -1, 40, 4e-4, origins=[bp])

    assert start.shape == model.shape
    assert not start[:, 1:].any()
    assert len(branch) == len(dense) > 10
    assert branch.stop_reason == dense.stop_reason
    assert dense.fiber_margin is None and branch.fiber_margin > 0
    for a, b in zip(branch.ts[:-1], dense.ts):
        assert abs(a - b) <= 2e-9
    assert (abs(branch.ts[-1] - float(t))
            <= abs(dense.ts[-1] - float(t)) + 2e-9)
    a, b = branch.samples, dense.samples
    for i in range(len(branch)):
        assert abs(a.u_distance[i] - b.u_distance[i]) <= 1e-12
        assert abs(a.energy[i] - b.energy[i]) <= 1e-12
        assert a.fiber_fraction[i] == 0.0
        assert a.residual_norm[i] < continuation.TOL_NEWTON


def test_fiber_blocks_of_the_dense_jacobian(small_cs_model):
    # on a fiber-constant state the dense Jacobian is block-diagonal over the
    # fiber degree j with J_jj = J_0 + (a_m lam_j / t) I; both defects are
    # measured relative to max |J| (observed 7e-17 and 2e-16).  The margin is
    # lambda_min(J_11) at the sample that attains it, so it is compared to
    # the blocks' eigenvalues to the same relative 1e-12
    model = small_cs_model
    nb, nf = model.shape
    (branch,) = continuation.follow_branch(model, [_only_point(model, Fraction(1))],
                                           1e-2, -1, 40, 4e-4)
    eye = np.eye(nb)
    samples = branch.samples
    jacs = galerkin.residual_jacobian(samples).reshape(-1, nb, nf, nb, nf)
    jac0s = galerkin.residual_jacobian(galerkin.Evaluation(
        model.fiber_constant, galerkin.State(samples.t, samples.state.coeffs[:, :, :1])))
    for t, jac, jac0 in zip(samples.t, jacs, jac0s):
        scale = np.abs(jac).max()
        off = jac.copy()
        for j in range(nf):
            block = jac[:, j, :, j]
            shift = float(model.a_m) * model.fiber.eigenvalues[j] / t
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

    (branch,) = continuation.follow_branch(model, [vertical], 1e-2, -1, 5, 4e-4)
    assert branch.fiber_margin is None
    assert all(f > 0.5 for f in branch.samples.fiber_fraction)

    (branch,) = continuation.follow_branch(model, [horizontal], 1e-2, -1, 5, 4e-4)
    assert branch.fiber_margin > 0
    assert all(f == 0.0 for f in branch.samples.fiber_fraction)


def test_the_branch_path_calls_no_eigh(sphere_sphere, monkeypatch):
    # a vertical branch is followed in the full space (nf = 6), whose
    # preconditioner inverts the degrees j >= 1 by their diagonals, and a
    # horizontal one on the fiber-constant subspace (nf = 1)
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    model = galerkin.build_model(sphere_sphere, 8, 6)
    points = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    branches = list(continuation.follow_branch(model, points, 1e-2, -1, 5, 4e-4))
    assert [b.subspace for b in points] == ["fiber-constant", "full"]
    assert [len(b) for b in branches] == [6, 6]


@pytest.mark.parametrize("which", ["vertical", "horizontal"])
def test_a_followed_branch_is_measured_once(sphere_sphere, monkeypatch, which):
    # the branches of the test above: a branch's samples are one stack, so
    # reading their energies is one kernel call over every sample
    model = galerkin.build_model(sphere_sphere, 8, 6)
    horizontal, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    calls, energy = [], galerkin.energy

    def counting(ev):
        calls.append(len(ev))
        return energy(ev)

    monkeypatch.setattr(galerkin, "energy", counting)
    bp = {"horizontal": horizontal, "vertical": vertical}[which]
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 5, 4e-4)
    energies = branch.samples.energy
    assert len(branch) > 1
    assert calls == [len(branch)] and len(energies) == len(branch)


def test_an_evaluation_is_independent_of_memory_layout(cs_model):
    # the fiber-constant part of each padded sample of the t = 1/225 branch,
    # read through a strided [nb, 1] view and through a contiguous copy,
    # gives the same grid and residual bit for bit: two evaluations of one
    # state agree whatever the layout of its coefficients
    model = cs_model
    bp = continuation.detect_branch_points(model, Fraction(1, 1000), 2)[0]
    assert bp.t == Fraction(1, 225)
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 40, 4e-4)
    sub = model.fiber_constant
    for t, coeffs in zip(branch.ts, branch.samples.state.coeffs):
        view = coeffs[:, :1]
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous
        strided, dense = (one_evaluation(sub, t, c) for c in (view, copy))
        assert np.array_equal(strided.grid, dense.grid)
        assert np.array_equal(galerkin.residual(strided), galerkin.residual(dense))


def test_margins_read_the_corrector_evaluations(small_cs_model, monkeypatch):
    # follow_branch takes each sample's margin from the evaluation of the
    # branch's samples on the fiber-constant subspace, with no dense
    # Jacobian; the branch margin is the smallest eigvalsh one over the
    # samples, to 1e-12 relative
    model = small_cs_model
    bp = _only_point(model, Fraction(1))

    def no_dense(*args, **kwargs):
        raise AssertionError("a dense Jacobian was built")

    monkeypatch.setattr(galerkin, "residual_jacobian", no_dense)
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 40, 4e-4)
    monkeypatch.undo()
    sub, shift = model.fiber_constant, model.a_m * model.fiber.eigenvalues[1]
    want = min(
        np.linalg.eigvalsh(galerkin.residual_jacobian(one_evaluation(sub, t, c[:, :1]))[0])[0]
        + shift / t
        for t, c in zip(branch.ts, branch.samples.state.coeffs))
    assert abs(branch.fiber_margin - want) <= 1e-12 * abs(want)


@pytest.fixture(scope="module")
def ss16_vertical(sphere_sphere):
    """S^2 x S^2 at 16x8 and its vertical branch point t = 2, followed in
    the full space (nf = 8)."""
    model = galerkin.build_model(sphere_sphere, 16, 8)
    _, vertical = continuation.detect_branch_points(model, Fraction(3, 10), 3)
    assert vertical.kernel_modes == ((0, 1),) and vertical.t == 2
    return model, vertical


def _follow(model, bp):
    """The vertical branch, 40 steps toward u = 1."""
    (branch,) = continuation.follow_branch(model, [bp], 1e-2, -1, 40, 4e-4)
    return branch


def test_every_tangent_builds_its_own_preconditioner(ss16_vertical, monkeypatch):
    # no preconditioner passes from a corrector to a tangent: each of the
    # 41 tangents (the first, then one per step) builds one, from the
    # evaluation it is given
    built, tangents = [], []
    build, tangent = continuation._Preconditioner.__init__, continuation._tangent

    def building(self, lin):
        built.append(lin.ev)
        build(self, lin)

    def spying(ev, *args):
        before = len(built)
        out = tangent(ev, *args)
        tangents.append(len(built) == before + 1 and built[before] is ev)
        return out

    monkeypatch.setattr(continuation._Preconditioner, "__init__", building)
    monkeypatch.setattr(continuation, "_tangent", spying)
    branch = _follow(*ss16_vertical)
    assert len(branch) == 41
    assert tangents == [True] * 41


def test_rounding_at_u_equal_one_is_no_turnaround(ss16_vertical, monkeypatch):
    # the branch reaches u = 1 after 25 steps and the continuation runs on
    # along the trivial branch, where the distances are rounding (about
    # 1e-14): their order is no turnaround, and the stop is the same when
    # that rounding grows at every step
    branch = _follow(*ss16_vertical)
    assert branch.stop_reason == "steps-exhausted"
    assert len(branch) == 41
    assert branch.distances[-1] < continuation._NONTRIVIAL_NORM

    seen, distance = [], galerkin.u_distance

    def growing(model, state):
        d = distance(model, state)
        if d < continuation._NONTRIVIAL_NORM:
            seen.append(d)
            d += 1e-15 * len(seen)
        return d

    monkeypatch.setattr(galerkin, "u_distance", growing)
    noisy = _follow(*ss16_vertical)
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


def test_the_reduction_through_a_one_mode_kernel(sphere_sphere):
    # S^2 x S^2 at t = 1/2: the kernel is the one mode (1, 0), sampled at
    # the coordinates +1 and -1 in turn (observed: discrepancy 3.5e-15,
    # margin 12.0).  Samples at one coordinate start the full solve from
    # different seeded fiber-mixed corrections and must land on one alpha
    model = galerkin.build_model(sphere_sphere, 8, 6)
    (bp,) = continuation.detect_branch_points(model, Fraction(2, 5), Fraction(3, 5))
    assert (bp.t, bp.kernel_modes) == (Fraction(1, 2), ((1, 0),))
    res = continuation.lyapunov_schmidt_reduce(model, bp, 1e-2, 4)
    assert res.kernel_dim == 1
    assert len(res.samples) == 4
    assert res.passed and res.discrepancy < 1e-12
    assert res.fiber_margin > 0
    plus, minus, plus_again, minus_again = res.samples
    for a, b in ((plus, plus_again), (minus, minus_again)):
        assert np.abs(a.alpha_full - b.alpha_full).max() <= 1e-12
    # the reduced map is not odd: the second-order terms of alpha(+n) and
    # alpha(-n) agree, so the two are far from opposite
    assert np.abs(plus.alpha_restricted + minus.alpha_restricted).max() > 1e-8


def _oracle_complement_solve(model, t, base, idx):
    """The complement Newton on the full model's Jacobian sliced to `idx`."""
    v = np.zeros(len(idx))
    for _ in range(continuation.MAX_NEWTON_ITER):
        c = base.copy()
        c[idx] += v
        ev = one_evaluation(model, t, c.reshape(model.shape))
        res = galerkin.residual(ev).ravel()[idx]
        if np.linalg.norm(res) < continuation.TOL_COMPLEMENT:
            return v
        v = v - np.linalg.solve(galerkin.residual_jacobian(ev)[0][np.ix_(idx, idx)], res)
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

    state = one_state(bp.t, base.reshape(model.shape))
    jac = galerkin.residual_jacobian(galerkin.Evaluation(model, state))[0]
    jac = jac[np.ix_(fc_flat, fc_flat)]
    sub = galerkin.residual_jacobian(one_evaluation(
        model.fiber_constant, bp.t, state.coeffs[0, :, :1]))[0][np.ix_(fc, fc)]
    assert np.abs(sub - jac).max() <= 1e-12 * np.abs(jac).max()

    (v,), (res,), _, (error,) = continuation._complement_solve(
        model.fiber_constant, bp.t, state.coeffs[:, :, :1], fc)
    if error is not None:
        raise error
    assert res < continuation.TOL_COMPLEMENT
    assert np.abs(v - _oracle_complement_solve(model, bp.t, base, fc_flat)).max() <= 1e-12


def test_the_verify_path_factors_no_n_by_n_matrix(cs_model, cs_branch_point, monkeypatch):
    # the trials and both reductions solve by fiber degree: no numpy.linalg
    # solve, inv, eigh, lstsq or svd call sees a matrix with a side of
    # n_modes or more, no eigh runs at all (the degrees j >= 1 are inverted
    # by their diagonals), and no dense Jacobian is built (the margins read
    # the restricted solve's evaluation)
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

    def counting(ev):
        jacobians.append(ev.model)
        return original(ev)

    monkeypatch.setattr(galerkin, "residual_jacobian", counting)
    continuation.verify_fiber_constancy(model, cs_branch_point, trials=3, seed=0)
    continuation.lyapunov_schmidt_reduce(model, cs_branch_point, 1e-2, 2)
    assert {name for name, _ in sides} == {"solve", "inv"}
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
            for member_start in start:
                full = np.zeros(model.n_modes)
                full[indices] = member_start
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
# stacked solves


def _alone_and_stacked(solve, k):
    """`solve(members)` -> {member: (evaluation, error)}: every member of
    the stack solved alone (a stack of one), the whole stack, and the stack
    of the members that converge in it."""
    alone = {i: solve([i])[i] for i in range(k)}
    stacked = solve(list(range(k)))
    converged = [i for i in range(k) if stacked[i][1] is None]
    return alone, stacked, converged, solve(converged)


def _assert_each_member_gets_its_own_result(alone, stacked, converged, only_converged):
    # the same status and error text, the same solution to 1e-12 (observed:
    # bit for bit), and the failing members leave the others as they are
    assert converged and len(converged) < len(alone)
    for i, (ev, error) in stacked.items():
        ev_alone, error_alone = alone[i]
        assert (error is None) == (error_alone is None)
        if error is None:
            for other in (ev_alone, only_converged[i][0]):
                assert abs(ev.t[0] - other.t[0]) <= 1e-12
                assert np.abs(ev.state.coeffs - other.state.coeffs).max() <= 1e-12
        else:
            assert (type(error), str(error)) == (type(error_alone), str(error_alone))


@pytest.fixture(scope="module")
def cs6(circle_sphere):
    """circle_sphere at 6x3 with its branch point t = 1."""
    model = galerkin.build_model(circle_sphere, 6, 3)
    (bp,) = continuation.detect_branch_points(model, 0.5, 1.5)
    return model, bp


def test_a_stack_of_trials_gives_each_member_its_own_result(cs6):
    # fiber-mixed trial starts at amplitude 1e-2 converge at 6x3; at
    # amplitude 3 a start leaves the positive cone (as in the none-converges
    # case below), and at 1.5 and 2 the damped steps stall against it
    model, bp = cs6
    rng = np.random.default_rng(0)
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    amplitudes = np.array([1e-2, 3.0, 1.5, 1e-2, 2.0, -1e-2])
    n_hats, starts = [], []
    for amplitude in amplitudes:
        n_hat = rng.standard_normal(bp.kernel_dim) @ vecs
        n_hat /= np.linalg.norm(n_hat)
        fiber = rng.standard_normal(model.shape)
        fiber[:, 0] = 0.0
        n_hats.append(n_hat)
        starts.append(c_triv + amplitude * (n_hat + fiber.ravel() / np.linalg.norm(fiber)))
    n_hats, starts = np.array(n_hats), np.array(starts)
    rows = np.concatenate([n_hats, np.zeros((len(n_hats), 1))], axis=1)
    targets = n_hats @ c_triv + amplitudes

    def solve(members):
        ev, _, errors = continuation._solve_bordered(
            model, starts[members], [bp.t] * len(members),
            continuation._orbit(model, [bp] * len(members), n_hats[members]), rows[members],
            targets[members])
        return dict(zip(members, zip(per_member(ev, errors), errors)))

    alone, stacked, converged, only_converged = _alone_and_stacked(solve, len(amplitudes))
    assert {type(error).__name__ for _, error in stacked.values()} == {
        "NoneType", "PositivityViolationError", "NoConvergenceError"}
    _assert_each_member_gets_its_own_result(alone, stacked, converged, only_converged)


def test_a_stack_of_complement_solves_gives_each_member_its_own_result(cs6):
    # full-complement samples of radius 1e-2 and 1.5 converge at 6x3; two
    # members start at u = -1 plus their kernel part, off the positive
    # cone, and fail there whatever the others do
    model, bp = cs6
    rng = np.random.default_rng(1)
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    kernel = [i * model.shape[1] + j for i, j in bp.kernel_modes]
    complement = [m for m in range(model.n_modes) if m not in kernel]
    radii = np.array([1e-2, 1.5, 1e-2, 1.5, 1e-2, 1e-2])
    off_cone = [2, 5]
    bases, starts = [], []
    for radius in radii:
        direction = rng.standard_normal(bp.kernel_dim) @ vecs
        bases.append(c_triv + radius * direction / np.linalg.norm(direction))
        mixed = rng.standard_normal(len(complement))
        starts.append(radius * mixed / np.linalg.norm(mixed))
    bases, starts = np.array(bases), np.array(starts)
    starts[off_cone] = -2 * c_triv[complement]

    def solve(members):
        _, _, ev, errors = continuation._complement_solve(
            model, bp.t, bases[members], complement, starts[members])
        return dict(zip(members, zip(per_member(ev, errors), errors)))

    alone, stacked, converged, only_converged = _alone_and_stacked(solve, len(radii))
    assert [i for i in stacked if i not in converged] == off_cone
    for i in off_cone:
        assert isinstance(stacked[i][1].__cause__, PositivityViolationError)
    _assert_each_member_gets_its_own_result(alone, stacked, converged, only_converged)


@pytest.mark.parametrize("sizes", [(1e-2, 1e-2, 1e-2), (0.3, 1e-2, 1e-2)],
                         ids=["together", "staggered"])
@pytest.mark.parametrize("kind", ["bordered", "complement"])
def test_a_newton_solve_returns_its_converged_members_as_one_stack(cs6, monkeypatch, kind,
                                                                   sizes):
    # trial starts (bordered) or full-complement samples (complement) of
    # the given amplitudes at 6x3: the solve returns one evaluation of its
    # converged members in member order.  When they converge in the same
    # iteration it is the iterate stack they converged in; when the first
    # member, of the larger amplitude, takes more steps, it is a join that
    # puts that member first again
    model, bp = cs6
    rng = np.random.default_rng(0)
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    kernel = [i * model.shape[1] + j for i, j in bp.kernel_modes]
    complement = [m for m in range(model.n_modes) if m not in kernel]
    k, sizes = len(sizes), np.array(sizes)
    directions = rng.standard_normal((k, bp.kernel_dim)) @ vecs
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    mixed = rng.standard_normal(model.shape)
    mixed[:, 0] = 0.0
    mixed = mixed.ravel() / np.linalg.norm(mixed)

    def solve(members):
        size, direction = sizes[members], directions[members]
        if kind == "complement":
            _, _, ev, errors = continuation._complement_solve(
                model, bp.t, c_triv + size[:, None] * direction, complement,
                size[:, None] * mixed[complement])
            return ev, errors
        rows = np.concatenate([direction, np.zeros((len(members), 1))], axis=1)
        ev, _, errors = continuation._solve_bordered(
            model, c_triv + size[:, None] * (direction + mixed), [bp.t] * len(members),
            continuation._orbit(model, [bp] * len(members), direction), rows,
            direction @ c_triv + size)
        return ev, errors

    alone = [solve([i])[0] for i in range(k)]
    iterates, evaluate = [], continuation._evaluate

    def recording(*args):
        out = evaluate(*args)
        iterates.append(out[0])
        return out

    monkeypatch.setattr(continuation, "_evaluate", recording)
    ev, errors = solve(list(range(k)))
    together = sizes[0] == sizes[1]
    assert errors == [None] * k
    assert isinstance(ev, galerkin.Evaluation) and len(ev) == k
    assert ({len(s) for s in iterates} == {k}) == together
    assert any(ev is s for s in iterates) == together
    for i, one in enumerate(alone):
        assert abs(ev.t[i] - one.t[0]) <= 1e-12
        assert np.abs(ev.state.coeffs[i] - one.state.coeffs[0]).max() <= 1e-12


def test_a_stack_of_complement_solves_returns_each_member_its_own_norm(cs_model,
                                                                      cs_branch_point):
    # the projected residual is a column selection of the stack's residuals,
    # which numpy returns Fortran-ordered; its norms, which Newton's stop
    # test reads, are each member's alone bit for bit, as are the solutions
    model, bp = cs_model, cs_branch_point
    rng = np.random.default_rng(1)
    vecs = continuation.kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    kernel = [i * model.shape[1] + j for i, j in bp.kernel_modes]
    complement = [m for m in range(model.n_modes) if m not in kernel]
    bases, starts = [], []
    for _ in range(8):
        direction = rng.standard_normal(bp.kernel_dim) @ vecs
        bases.append(c_triv + 1e-2 * direction / np.linalg.norm(direction))
        mixed = rng.standard_normal(len(complement))
        starts.append(1e-2 * mixed / np.linalg.norm(mixed))
    bases, starts = np.array(bases), np.array(starts)
    v, norms, _, errors = continuation._complement_solve(model, bp.t, bases, complement, starts)
    assert errors == [None] * 8
    for i in range(8):
        (v_i,), (norm_i,), _, _ = continuation._complement_solve(
            model, bp.t, bases[i:i + 1], complement, starts[i:i + 1])
        assert np.array_equal(v[i], v_i)
        assert norms[i] == norm_i


def _reported(branch):
    """What a followed branch reports: its samples' t, coefficients,
    energies, distances and residual norms, its stop reason and margin."""
    s = branch.samples
    arrays = (s.t, s.state.coeffs, s.energy, s.u_distance, s.residual_norm)
    return [a.tolist() for a in arrays] + [branch.stop_reason, branch.fiber_margin]


@pytest.mark.parametrize("family, t_max, direction, steps, ds", [
    ("circle_sphere", 2, -1, 40, 4e-4),
    ("circle_sphere", 2, +1, 5, 2.0),
    ("sphere_sphere", 3, -1, 40, 4e-4),
    ("sphere_sphere", 10, -1, 40, 4e-4),
], ids=["cs-toward", "cs-away", "ss-toward", "ss-two-vertical"])
def test_branches_followed_together_get_the_bits_they_get_alone(
        family, t_max, direction, steps, ds, circle_sphere, sphere_sphere):
    # circle_sphere at 8x4 has four horizontal cos/sin points on (1/20, 2],
    # one group; S^2 x S^2 at 8x6 over (3/10, 3] has one horizontal and one
    # vertical group, and over (3/10, 10] two vertical points (t = 2 and 8)
    # whose group stops at 41 and 31 samples, each tangent preconditioned
    # at its own solution.  Away from u = 1 at ds = 2 the
    # circle_sphere members stop at different steps, two of them by an
    # InvalidArgumentError of their own (a predictor with t < 0).  A
    # three-mode kernel fails alone and among the others with the same
    # error, and leaves them unchanged
    if family == "circle_sphere":
        model = galerkin.build_model(circle_sphere, 8, 4)
        points = continuation.detect_branch_points(model, Fraction(1, 20), t_max)
    else:
        model = galerkin.build_model(sphere_sphere, 8, 6)
        points = continuation.detect_branch_points(model, Fraction(3, 10), t_max)
    three = continuation.BranchPoint(t=1.0, kernel_modes=((1, 0), (2, 0), (3, 0)))
    points = points[:1] + [three] + points[1:]
    together = list(continuation.follow_branch(model, points, 1e-2, direction, steps, ds))
    assert len(together) == len(points) >= 3
    assert sum(isinstance(b, continuation.Branch) for b in together) >= 2
    for bp, got in zip(points, together):
        (alone,) = continuation.follow_branch(model, [bp], 1e-2, direction, steps, ds)
        if isinstance(alone, CscbifError):
            assert (type(got), str(got)) == (type(alone), str(alone))
        else:
            assert _reported(got) == _reported(alone)
    if direction == +1:
        assert {type(b).__name__ for b in together} == {"Branch", "InvalidArgumentError",
                                                        "PreconditionError"}
        assert len({len(b) for b in together if isinstance(b, continuation.Branch)}) == 2


def test_the_verify_path_factors_per_stack(cs_model, cs_branch_point, monkeypatch):
    # the trials and the full-complement samples are solved as stacks: one
    # inv call factors the Schur systems of every member of a fiber-mixed
    # solve, so there are fewer calls than solves, and the first sees all
    # six trials (the restricted samples, with one fiber mode, call solve)
    shapes, solves = [], []

    def spy(a, *args, _original=np.linalg.inv, **kwargs):
        shapes.append(np.shape(a))
        return _original(a, *args, **kwargs)

    def counting(model, state, system, linear, x, tol, _original=continuation._newton):
        solves.append(len(x))
        return _original(model, state, system, linear, x, tol)

    monkeypatch.setattr(np.linalg, "inv", spy)
    monkeypatch.setattr(continuation, "_newton", counting)
    continuation.verify_fiber_constancy(cs_model, cs_branch_point, trials=6)
    continuation.lyapunov_schmidt_reduce(cs_model, cs_branch_point, 1e-2, 4)
    assert sum(solves) == 6 + 4 + 4
    assert [shape[:-2] for shape in shapes] == [(6,), (4,)]


def test_a_fiber_mixed_solve_factors_its_preconditioner_once(cs_model, cs_branch_point,
                                                              monkeypatch):
    # the 20 trials are one Newton solve: each member's preconditioner is
    # factored at the first step and kept until the member leaves
    builds = []
    original = continuation._Preconditioner.__init__

    def counting(self, lin):
        builds.append(len(lin.ev))
        original(self, lin)

    monkeypatch.setattr(continuation._Preconditioner, "__init__", counting)
    continuation.verify_fiber_constancy(cs_model, cs_branch_point, 20, seed=0)
    assert builds == [20]


# ---------------------------------------------------------------------------
# seeded fiber-constancy trials


def test_fiber_constancy_trials_pass(cs_model, cs_branch_point):
    report = continuation.verify_fiber_constancy(
        cs_model, cs_branch_point, trials=20, seed=0
    )
    assert report.passed
    assert report.max_fraction < 1e-8
    assert len(report.trials) == 20
    assert report.nontrivial == 20
    assert all(row.converged and row.nontrivial for row in report.trials)
    assert not any(row.violation for row in report.trials)


@pytest.mark.parametrize("amplitude, converged", [(3.0, False), (1e-12, True)],
                         ids=["none-converges", "all-collapse"])
def test_fiber_constancy_with_no_nontrivial_trial_does_not_pass(circle_sphere, amplitude,
                                                                 converged):
    # at 6x3 and t = 1, amplitude 3 leaves every trial unconverged and
    # amplitude 1e-12 lets every trial collapse to u = 1: no solution was
    # checked for fiber content, so the report does not pass
    model = galerkin.build_model(circle_sphere, 6, 3)
    (bp,) = continuation.detect_branch_points(model, 0.5, 1.5)
    report = continuation.verify_fiber_constancy(model, bp, 8, seed=0, amplitude=amplitude)
    assert report.nontrivial == 0
    assert not report.passed
    assert report.max_fraction == 0.0
    assert len(report.trials) == 8
    for row in report.trials:
        assert (row.converged, row.nontrivial, row.violation) == (converged, False, False)
        assert row.fiber_fraction is None
        if converged:
            assert row.u_distance <= continuation._NONTRIVIAL_NORM
        else:
            assert row.t is None and row.u_distance is None


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
