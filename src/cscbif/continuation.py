"""Branch structure of the discretized constant-scalar-curvature equation.

Given a Galerkin model, this module takes the branch points from the exact
degeneracy roots of the resolved mode pairs (`variation.degeneracy_roots`;
no float search), switches onto the bifurcating branches, follows them by
pseudo-arclength continuation, and runs a finite-dimensional two-subspace
Lyapunov-Schmidt reduction whose agreement certifies that the bifurcating
solutions are constant along the fibers.

Branch switching, continuation and the fiber-constancy trials share one
corrector: damped Newton on a square bordered system (Keller's
pseudo-arclength corrector in the bordered form of Govaerts), one dense
solve per step.  The unknowns are (c, t) and the equations are
residual(c, t) = 0 plus one affine row: the amplitude pin
<c - c_triv, n> = amplitude when switching, with n a unit kernel direction,
or the arclength row when continuing.  When the kernel is the cos/sin pair
of one circle-factor frequency, the rotation orbit of a solution is a null
direction of that system.  An unfolding unknown mu then enters as
residual(c, t) + mu R c = 0, with R the rotation generator of the circle
factor, and a phase row <c - c_triv, w> = 0 with w the orbit direction
inside the kernel span fixes the rotation.  By equivariance mu vanishes on
solutions.  The branch tangent is the solution of the same bordered matrix
with the previous tangent as its last row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import galerkin, variation
from .errors import (
    EmptyBranchError,
    HypothesisViolatedError,
    InvalidArgumentError,
    NoConvergenceError,
    NondiscreteDegeneracyError,
    NoNontrivialSolutionError,
    NotApplicableError,
    PositivityViolationError,
    PreconditionError,
    ReductionFailedError,
    UndefinedFractionError,
)
from .galerkin import GalerkinModel, State

TOL_NEWTON = 1e-10
MAX_NEWTON_ITER = 50
_MIN_DAMPING = 1e-9
_NONTRIVIAL_NORM = 1e-8      # below this, a solution counts as the trivial one
_CIRCLE_DIRECTIONS = 8


def residual_norm(model: GalerkinModel, state: State) -> float:
    return float(np.linalg.norm(galerkin.residual(model, state)))


def _fraction_or_zero(state: State) -> float:
    try:
        return galerkin.fiber_energy_fraction(state)
    except UndefinedFractionError:
        return 0.0


# ---------------------------------------------------------------------------
# branch-point detection

@dataclass(frozen=True)
class BranchPoint:
    """An exact degeneracy instant t of the discretized family with the
    resolved modes (i, j) whose eigenvalue pair (b_i, lam_j) has t as a
    root: the kernel of the linearization at u = 1."""

    t: Fraction
    kernel_modes: tuple

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_modes)

    @property
    def horizontal(self) -> bool:
        return all(j == 0 for _, j in self.kernel_modes)


def detect_branch_points(model: GalerkinModel, t_min, t_max) -> list:
    """The branch points on (t_min, t_max], ascending: the exact roots of
    the degeneracy polynomial of every resolved mode pair except the
    constant one, grouped by exact equality.  Raises
    NondiscreteDegeneracyError when some pair vanishes identically."""
    t_min, t_max = variation._check_window(t_min, t_max)
    modes_at = {}
    for mode, (b, lam) in model.eigentable():
        if b == 0 and lam == 0:
            continue
        rr = variation.degeneracy_roots(model.family, b, lam)
        if rr.all_positive:
            raise NondiscreteDegeneracyError((b, lam))
        for t in rr.roots:
            if t_min < t <= t_max:
                modes_at.setdefault(t, []).append(mode)
    return [BranchPoint(t, tuple(modes)) for t, modes in sorted(modes_at.items())]


def kernel_vectors(model: GalerkinModel, bp: BranchPoint) -> np.ndarray:
    """Unit coefficient arrays spanning the kernel, [dim, nb, nf]."""
    vecs = np.zeros((bp.kernel_dim,) + model.shape)
    for k, (i, j) in enumerate(bp.kernel_modes):
        vecs[k, i, j] = 1.0
    return vecs


# ---------------------------------------------------------------------------
# Newton solvers

def newton_solve(model: GalerkinModel, t, initial: State,
                 tol: float = TOL_NEWTON, max_iter: int = MAX_NEWTON_ITER) -> State:
    """Damped Newton at fixed t.  The initial state must be positive on the
    grid; every iterate stays positive (the step is halved on violation or
    on insufficient residual decrease)."""
    t = float(t)
    coeffs = np.array(initial.coeffs, dtype=float)
    state = State(t, coeffs)
    res = galerkin.residual(model, state)          # raises if not positive
    for _ in range(max_iter):
        norm = float(np.linalg.norm(res))
        if norm < tol:
            return state
        jac = galerkin.residual_jacobian(model, state)
        try:
            step = np.linalg.solve(jac, -res.ravel()).reshape(model.shape)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Jacobian at t = {t}") from exc
        alpha = 1.0
        while True:
            candidate = State(t, state.coeffs + alpha * step)
            try:
                res_new = galerkin.residual(model, candidate)
            except PositivityViolationError:
                pass
            else:
                new_norm = float(np.linalg.norm(res_new))
                if new_norm <= (1 - 0.25 * alpha) * norm or new_norm < tol:
                    state, res = candidate, res_new
                    break
            alpha *= 0.5
            if alpha < _MIN_DAMPING:
                raise NoConvergenceError(
                    f"line search stalled at t = {t} (residual {norm:.3e})"
                )
    raise NoConvergenceError(
        f"no convergence in {max_iter} iterations at t = {t} "
        f"(residual {float(np.linalg.norm(res)):.3e})"
    )


@dataclass(frozen=True)
class _Orbit:
    """The rotation orbit of a branch through a cos/sin kernel pair:
    `gen` is d/dphi of the circle factor on flat coefficients, [n, n], and
    `phase` the unit orbit direction of the kernel part of the branch, [n]."""

    gen: np.ndarray
    phase: np.ndarray


def _circle_generator(factor) -> np.ndarray:
    """d/dphi on one Fourier factor's coefficients: the frequency-k pair
    (cos, sin) maps to (k sin-coefficient, -k cos-coefficient)."""
    gen = np.zeros((factor.count, factor.count))
    for a in range(1, factor.count, 2):
        k = factor.frequencies[a]
        gen[a, a + 1] = k
        gen[a + 1, a] = -k
    return gen


def _rotation_generator(model, bp):
    """Rotation generator of the circle factor whose cos/sin pair spans the
    kernel of `bp`, [n, n]; None when there is no rotation orbit to fix
    (no branch point, or a one-mode kernel)."""
    if bp is None or bp.kernel_dim == 1:
        return None

    def is_pair(factor, a, b):
        return factor.label == "fourier" and a % 2 == 1 and b == a + 1

    nb, nf = model.shape
    if bp.kernel_dim == 2:
        (i1, j1), (i2, j2) = sorted(bp.kernel_modes)
        if j1 == j2 and is_pair(model.base, i1, i2):
            return np.kron(_circle_generator(model.base), np.eye(nf))
        if i1 == i2 and is_pair(model.fiber, j1, j2):
            return np.kron(np.eye(nb), _circle_generator(model.fiber))
    raise PreconditionError(
        f"kernel modes {list(bp.kernel_modes)} are not the cos/sin pair of one "
        "circle-factor frequency; the bordered corrector supports one-mode "
        "kernels and such pairs only"
    )


def _orbit(model, bp, gen, align):
    """The orbit data for a branch whose kernel part points along `align`
    (flattened); None without a generator or when `align` has no kernel
    part, since then there is no orbit direction to fix."""
    if gen is None:
        return None
    span = kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    coords = span @ align
    if np.linalg.norm(coords) <= 1e-12:
        return None
    phase = gen @ (coords @ span)
    return _Orbit(gen, phase / np.linalg.norm(phase))


def _bordered_matrix(model, state, orbit, row, mu=0.0):
    """The square Jacobian of the bordered system at `state`: unknowns
    (c, t) and, with an orbit, mu; rows residual + mu gen c, then with an
    orbit the phase row, then `row` over (c, t)."""
    n = model.n_modes
    k = 0 if orbit is None else 1
    mat = np.zeros((n + 1 + k, n + 1 + k))
    mat[:n, :n] = galerkin.residual_jacobian(model, state)
    mat[:n, n] = galerkin.residual_t_derivative(model, state).ravel()
    if orbit is not None:
        mat[:n, :n] += mu * orbit.gen
        mat[:n, n + 1] = orbit.gen @ state.coeffs.ravel()
        mat[n, :n] = orbit.phase
    mat[n + k, :n + 1] = row
    return mat


def _solve_bordered(model, coeffs, t, orbit, row, target,
                    tol=TOL_NEWTON, max_iter=MAX_NEWTON_ITER):
    """Damped Newton on the square bordered system

        residual(c, t) + mu gen c = 0,  <phase, c> = 0,  row . (c, t) = target

    (the mu term and the phase row only with an orbit; the phase row lies in
    the kernel span, orthogonal to the constant, so it reads
    <phase, c - c_triv> = 0).  Each step is one dense solve.  Stops when the
    bordered residual and residual(c, t) alone are both below `tol`, and
    returns the state and mu.  Raises NoConvergenceError, whose
    `positivity_boundary` tells whether the line search ever hit the
    positivity boundary."""
    n = model.n_modes
    row = np.asarray(row, dtype=float)
    positivity_seen = False

    def mu_of(x):
        return 0.0 if orbit is None else float(x[n + 1])

    def evaluate(x):
        c = x[:n]
        st = State(x[n], c.reshape(model.shape))
        res = galerkin.residual(model, st).ravel()
        last = row @ x[:n + 1] - target
        if orbit is None:
            full = np.append(res, last)
        else:
            full = np.concatenate([res + x[n + 1] * (orbit.gen @ c),
                                   [orbit.phase @ c, last]])
        return full, st, float(np.linalg.norm(res))

    x = np.append(np.asarray(coeffs, dtype=float).ravel(),
                  [float(t)] if orbit is None else [float(t), 0.0])
    F, state, plain = evaluate(x)
    norm = float(np.linalg.norm(F))
    for _ in range(max_iter):
        if norm < tol and plain < tol:
            return state, mu_of(x)
        mat = _bordered_matrix(model, state, orbit, row, mu_of(x))
        try:
            step = np.linalg.solve(mat, -F)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"singular bordered matrix near t = {x[n]}"
            ) from exc
        alpha = 1.0
        while True:
            cand = x + alpha * step
            if cand[n] > 0:
                try:
                    F_new, state_new, plain_new = evaluate(cand)
                except PositivityViolationError:
                    positivity_seen = True
                else:
                    new_norm = float(np.linalg.norm(F_new))
                    if new_norm <= (1 - 0.25 * alpha) * norm or new_norm < tol:
                        x, F, state, plain, norm = cand, F_new, state_new, plain_new, new_norm
                        break
            alpha *= 0.5
            if alpha < _MIN_DAMPING:
                raise NoConvergenceError(
                    f"bordered solve stalled near t = {x[n]} (residual {norm:.3e})",
                    positivity_boundary=positivity_seen,
                )
    raise NoConvergenceError(
        f"bordered solve: no convergence in {max_iter} iterations (residual {norm:.3e})",
        positivity_boundary=positivity_seen,
    )


def _switch_solve(model, bp, gen, c_triv, n_hat, amplitude, start):
    """The branch-switching corrector of `switch_branch` and
    `verify_fiber_constancy`: pin <c - c_triv, n_hat> = amplitude, fix the
    phase along n_hat, and solve from `start` at t = bp.t."""
    orbit = _orbit(model, bp, gen, n_hat)
    state, _ = _solve_bordered(model, start, bp.t, orbit, np.append(n_hat, 0.0),
                               n_hat @ c_triv + amplitude)
    return state


# ---------------------------------------------------------------------------
# branch switching

def _candidate_directions(model, bp, direction):
    vecs = kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    if bp.kernel_dim == 1:
        if direction in (1, -1):
            return [direction * vecs[0]]
        return [vecs[0], -vecs[0]]
    angles = 2 * np.pi * np.arange(_CIRCLE_DIRECTIONS) / _CIRCLE_DIRECTIONS
    dirs = [np.cos(a) * vecs[0] + np.sin(a) * vecs[1] for a in angles]
    return dirs if direction != -1 else [-d for d in dirs]


def switch_branch(model: GalerkinModel, bp: BranchPoint, amplitude: float,
                  direction=None) -> State:
    """Land on a nontrivial branch through bp: solve the equation in (c, t)
    with the kernel amplitude pinned to `amplitude`, starting from
    u = 1 + amplitude * (kernel direction) at t = bp.t.  Tries each
    candidate kernel direction in turn; a converged solution that collapses
    back to u = 1 counts as a failure for that direction.  Kernels other
    than one mode or one circle cos/sin pair raise PreconditionError."""
    if bp.kernel_dim < 1:
        raise PreconditionError("branch point has no kernel modes")
    gen = _rotation_generator(model, bp)
    amplitude = float(amplitude)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()

    failures = []
    for n_hat in _candidate_directions(model, bp, direction):
        start = c_triv + amplitude * n_hat
        try:
            state = _switch_solve(model, bp, gen, c_triv, n_hat, amplitude, start)
        except (NoConvergenceError, PositivityViolationError) as exc:
            failures.append(str(exc))
            continue
        if galerkin.u_distance(model, state) > _NONTRIVIAL_NORM:
            return state
        failures.append("collapsed to the trivial solution")
    raise NoNontrivialSolutionError(
        f"no nontrivial branch found at t = {bp.t} "
        f"(amplitude {amplitude}, {len(failures)} attempts)"
    )


# ---------------------------------------------------------------------------
# pseudo-arclength continuation

@dataclass(frozen=True)
class BranchSample:
    t: float
    state: State
    energy: float
    fiber_fraction: float
    residual_norm: float
    u_distance: float


@dataclass(frozen=True)
class Branch:
    samples: tuple
    origin: BranchPoint | None
    stop_reason: str

    def __len__(self):
        return len(self.samples)

    @property
    def ts(self):
        return np.array([s.t for s in self.samples])

    @property
    def distances(self):
        return np.array([s.u_distance for s in self.samples])


def _make_sample(model, state):
    return BranchSample(
        t=float(state.t),
        state=state,
        energy=galerkin.energy(model, state),
        fiber_fraction=_fraction_or_zero(state),
        residual_norm=residual_norm(model, state),
        u_distance=galerkin.u_distance(model, state),
    )


def _tangent(model, state, orbit, last_row):
    """Unit tangent (dc, dt) of the branch at a solution: one solve of the
    bordered matrix with `last_row` over (c, t) as its last row and right
    side e_last, so the tangent has a positive component along `last_row`
    (the previous tangent, or the unit offset from u = 1 at the start)."""
    mat = _bordered_matrix(model, state, orbit, last_row)
    rhs = np.zeros(len(mat))
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(mat, rhs)[:model.n_modes + 1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"singular tangent system at t = {state.t}") from exc
    return v / np.linalg.norm(v)


def continue_branch(model: GalerkinModel, start: State, direction: int,
                    steps: int, ds: float, origin: BranchPoint | None = None) -> Branch:
    """Pseudo-arclength continuation from a converged solution.

    `direction` +1 follows the branch with growing distance from u = 1,
    -1 with shrinking distance (toward the branch point).  Stops early on
    positivity loss, corrector failure, or when the distance turns around
    (the turning sample is discarded so the kept prefix stays monotone).
    The rotation orbit of a cos/sin kernel pair of `origin` is fixed by the
    phase of the start state; without `origin` no phase is fixed.
    """
    if not ds > 0:
        raise InvalidArgumentError(f"arclength step must be positive, got {ds}")
    if steps < 1:
        raise InvalidArgumentError(f"need steps >= 1, got {steps}")
    if direction not in (1, -1):
        raise InvalidArgumentError(f"direction must be +1 or -1, got {direction!r}")
    if residual_norm(model, start) > 10 * TOL_NEWTON:
        raise PreconditionError("start state does not satisfy the residual tolerance")

    c_triv = galerkin.constant_state(model, start.t).coeffs.ravel()
    offset = start.coeffs.ravel() - c_triv
    orbit = _orbit(model, origin, _rotation_generator(model, origin), offset)

    # first tangent: positive along the offset from u = 1 (along t when the
    # start is u = 1 itself), then flipped to the requested direction
    offset_norm = np.linalg.norm(offset)
    first_row = (np.append(offset / offset_norm, 0.0) if offset_norm > 0
                 else np.append(offset, 1.0))
    x = np.concatenate([start.coeffs.ravel(), [float(start.t)]])
    v = direction * _tangent(model, start, orbit, first_row)

    samples = [_make_sample(model, start)]
    dist_prev = galerkin.u_distance(model, start)
    reason = "steps-exhausted"
    for step_no in range(steps):
        x_pred = x + ds * v
        try:
            state, _ = _solve_bordered(
                model, x_pred[:-1], x_pred[-1], orbit, v, float(v @ x_pred)
            )
        except (NoConvergenceError, PositivityViolationError) as exc:
            if step_no == 0:
                raise EmptyBranchError(
                    f"first continuation corrector failed: {exc}"
                ) from exc
            hit_boundary = (isinstance(exc, PositivityViolationError)
                            or exc.positivity_boundary)
            reason = "positivity-stop" if hit_boundary else "no-convergence"
            break
        dist = galerkin.u_distance(model, state)
        if (dist - dist_prev) * direction < 0:
            reason = "turnaround"
            break
        x = np.concatenate([state.coeffs.ravel(), [float(state.t)]])
        v = _tangent(model, state, orbit, v)
        samples.append(_make_sample(model, state))
        dist_prev = dist
    return Branch(tuple(samples), origin, reason)


# ---------------------------------------------------------------------------
# double Lyapunov-Schmidt reduction

@dataclass(frozen=True)
class ReductionSample:
    kernel_coefficients: tuple     # coordinates of n in the kernel basis
    alpha_full: np.ndarray         # complement correction, full space
    alpha_restricted: np.ndarray   # complement correction, fiber-constant space
    reduced: np.ndarray            # kernel projection of the residual at 1+n+alpha
    projected_residual_full: float
    projected_residual_restricted: float

    @property
    def difference(self) -> float:
        return float(np.linalg.norm(self.alpha_full - self.alpha_restricted))


@dataclass(frozen=True)
class ReductionResult:
    kernel_dim: int
    samples: tuple
    discrepancy: float             # max |alpha_full - alpha_restricted|


def _complement_solve(model, t, base_coeffs, indices, tol=1e-11):
    """Newton for the complement-projected equation: find v supported on
    `indices` (flat) with P residual(base + v) = 0."""
    n = model.n_modes
    idx = np.asarray(indices, dtype=int)
    v = np.zeros(len(idx))
    for _ in range(MAX_NEWTON_ITER):
        c = base_coeffs.copy().ravel()
        c[idx] += v
        state = State(t, c.reshape(model.shape))
        res = galerkin.residual(model, state).ravel()[idx]
        norm = float(np.linalg.norm(res))
        if norm < tol:
            return v, norm
        jac = galerkin.residual_jacobian(model, state)[np.ix_(idx, idx)]
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ReductionFailedError(
                "complement Jacobian is singular; the kernel split is invalid"
            ) from exc
        v = v + step
    raise ReductionFailedError(
        f"complement solve did not converge (residual {norm:.3e})"
    )


def lyapunov_schmidt_reduce(model: GalerkinModel, bp: BranchPoint,
                            sample_radius: float, n_samples: int) -> ReductionResult:
    """Solve the complement equation v = alpha(n) for sampled kernel vectors
    n twice, over the full complement and over the fiber-constant complement
    only, and report the largest disagreement.  Agreement is the discretized
    form of the statement that both reductions produce the same branch, which
    forces the bifurcating solutions to be fiber-constant."""
    if bp.kernel_dim < 1:
        raise PreconditionError("branch point has no kernel modes")
    if not bp.horizontal:
        raise HypothesisViolatedError(
            "kernel contains fiber-dependent modes; the two reductions act on "
            "different kernels and the comparison is meaningless"
        )
    if n_samples < 1:
        raise InvalidArgumentError(f"need n_samples >= 1, got {n_samples}")
    nb, nf = model.shape
    kernel_flat = [i * nf + j for i, j in bp.kernel_modes]
    full_comp = [k for k in range(model.n_modes) if k not in set(kernel_flat)]
    fc_comp = [i * nf for i in range(nb) if (i, 0) not in set(bp.kernel_modes)]

    vecs = kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()

    if bp.kernel_dim == 1:
        coords = [((-1.0) ** k,) for k in range(n_samples)]
    else:
        angles = 2 * np.pi * np.arange(n_samples) / n_samples
        coords = [
            tuple(np.cos(a) if k == 0 else (np.sin(a) if k == 1 else 0.0)
                  for k in range(bp.kernel_dim))
            for a in angles
        ]

    samples = []
    worst = 0.0
    for coeffs in coords:
        n_vec = sample_radius * sum(c * v for c, v in zip(coeffs, vecs))
        base = c_triv + n_vec
        vf, rf = _complement_solve(model, bp.t, base, full_comp)
        vr, rr = _complement_solve(model, bp.t, base, fc_comp)
        alpha_full = np.zeros(model.n_modes)
        alpha_full[full_comp] = vf
        alpha_restricted = np.zeros(model.n_modes)
        alpha_restricted[fc_comp] = vr
        corrected = State(float(bp.t), (base + alpha_full).reshape(model.shape))
        reduced = galerkin.residual(model, corrected).ravel()[kernel_flat]
        sample = ReductionSample(
            kernel_coefficients=tuple(float(c) for c in coeffs),
            alpha_full=alpha_full.reshape(model.shape),
            alpha_restricted=alpha_restricted.reshape(model.shape),
            reduced=reduced,
            projected_residual_full=rf,
            projected_residual_restricted=rr,
        )
        samples.append(sample)
        worst = max(worst, sample.difference)
    return ReductionResult(bp.kernel_dim, tuple(samples), worst)


# ---------------------------------------------------------------------------
# fiber-constancy verification

@dataclass(frozen=True)
class TrialRow:
    index: int
    converged: bool
    nontrivial: bool
    t: float | None
    u_distance: float | None
    fiber_fraction: float | None
    violation: bool


@dataclass(frozen=True)
class FiberConstancyReport:
    branch_point: BranchPoint
    trials: tuple
    seed: int
    threshold: float
    max_fraction: float

    @property
    def passed(self) -> bool:
        return not any(row.violation for row in self.trials)


def verify_fiber_constancy(model: GalerkinModel, bp: BranchPoint, trials: int,
                           seed: int = 0, amplitude: float = 1e-2,
                           threshold: float = 1e-8) -> FiberConstancyReport:
    """Falsification channel for fiber-constancy of the bifurcating branch:
    branch-switch from seeded random perturbations that mix kernel and
    fiber-mode components; every converged nontrivial solution must shed its
    fiber content below `threshold`.  Violations are reported, not raised."""
    try:
        epsilon = variation.stability_epsilon(model.family)
    except NotApplicableError as exc:
        raise PreconditionError(
            "the family has no stability window; fiber-constancy of the "
            "branch is not guaranteed at any t"
        ) from exc
    if not bp.t < epsilon:
        raise PreconditionError(
            f"branch point t = {bp.t} lies outside the stability window "
            f"(0, {epsilon}); fiber-constancy is only guaranteed inside it"
        )
    if bp.kernel_dim < 1:
        raise PreconditionError("branch point has no kernel modes")
    if trials < 1:
        raise InvalidArgumentError(f"need trials >= 1, got {trials}")
    gen = _rotation_generator(model, bp)

    rng = np.random.default_rng(seed)
    vecs = kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    nb, nf = model.shape

    rows_out = []
    max_fraction = 0.0
    for trial in range(trials):
        kcoef = rng.standard_normal(bp.kernel_dim)
        n_hat = (kcoef @ vecs)
        n_hat /= np.linalg.norm(n_hat)
        fiber_part = rng.standard_normal((nb, nf))
        fiber_part[:, 0] = 0.0
        fiber_part = fiber_part.ravel()
        fiber_part /= np.linalg.norm(fiber_part)

        start = c_triv + amplitude * (n_hat + fiber_part)
        try:
            state = _switch_solve(model, bp, gen, c_triv, n_hat, amplitude, start)
        except (NoConvergenceError, PositivityViolationError):
            rows_out.append(TrialRow(trial, False, False, None, None, None, False))
            continue
        dist = galerkin.u_distance(model, state)
        if dist <= _NONTRIVIAL_NORM:
            rows_out.append(TrialRow(trial, True, False, float(state.t), dist, None, False))
            continue
        fraction = _fraction_or_zero(state)
        max_fraction = max(max_fraction, fraction)
        rows_out.append(TrialRow(
            trial, True, True, float(state.t), dist, fraction,
            fraction >= threshold,
        ))
    return FiberConstancyReport(bp, tuple(rows_out), seed, threshold, max_fraction)
