"""Branch structure of the discretized constant-scalar-curvature equation.

Given a Galerkin model, this module takes the branch points from the exact
degeneracy roots of the resolved mode pairs (`variation.window_roots`;
no float search), switches onto the bifurcating branches, follows them by
pseudo-arclength continuation, and runs a finite-dimensional two-subspace
Lyapunov-Schmidt reduction whose agreement certifies that the bifurcating
solutions are constant along the fibers.

One damped Newton loop (`_newton`) solves every nonlinear system here:
the corrector that branch switching, continuation and the fiber-constancy
trials share, a square bordered system (Keller's pseudo-arclength
corrector in the bordered form of Govaerts), and the complement solves of
the reduction, made square by their kernel pins.  Its linear solves go by
fiber degree (`_solve_linear`): block elimination over the fiber blocks of
the Jacobian, refined by GMRES on the true operator.  In the corrector
the unknowns are (c, t) and the equations are residual(c, t) = 0 plus one
affine row: the amplitude pin <c - c_triv, n> = amplitude when switching,
with n a unit kernel direction, or the arclength row when continuing.
When the kernel is the cos/sin pair of one circle-factor frequency, the
rotation orbit of a solution is a null direction of that system.  An
unfolding unknown mu then enters as residual(c, t) + mu R c = 0, with R
the rotation generator of the circle factor (`_Orbit`), and a phase row
<c - c_triv, w> = 0 with w the orbit direction inside the kernel span
fixes the rotation.  By equivariance mu vanishes on solutions.  The
branch tangent is the solution of the same bordered matrix with the
previous tangent as its last row.

A horizontal kernel consists of fiber-constant modes, which span the
fixed-point subspace of the fiber isometries; the residual leaves it
invariant, so `follow_branch` follows such a branch there, on nb modes
instead of nb * nf, and the restricted reduction solves there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import galerkin, variation
from .errors import (
    EmptyBranchError,
    HypothesisViolatedError,
    InvalidArgumentError,
    NoConvergenceError,
    NoNontrivialSolutionError,
    NotApplicableError,
    PositivityViolationError,
    PreconditionError,
    ReductionFailedError,
)
from .galerkin import GalerkinModel, State

TOL_NEWTON = 1e-10
TOL_COMPLEMENT = 1e-11
MAX_NEWTON_ITER = 50
_MIN_DAMPING = 1e-9
_NONTRIVIAL_NORM = 1e-8      # below this, a solution counts as the trivial one
DISCREPANCY_BOUND = 1e-8     # largest reduction discrepancy that counts as agreement
FIBER_FRACTION_BOUND = 1e-8  # a trial solution at or above this fiber fraction violates


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

    @property
    def subspace(self) -> str:
        """Where `follow_branch` follows the branch through this point."""
        return "fiber-constant" if self.horizontal else "full"


def detect_branch_points(model: GalerkinModel, t_min, t_max) -> list:
    """The branch points on (t_min, t_max], ascending: the exact roots of
    the degeneracy polynomial of every resolved mode pair except the
    constant one, grouped by exact equality.  Raises
    NondiscreteDegeneracyError when some pair vanishes identically."""
    pairs = ((mode, b, lam) for mode, (b, lam) in model.eigentable())
    return [
        BranchPoint(t, tuple(modes))
        for t, modes in variation.window_roots(model.family, pairs, t_min, t_max)
    ]


def kernel_vectors(model: GalerkinModel, bp: BranchPoint) -> np.ndarray:
    """Unit coefficient arrays spanning the kernel, [dim, nb, nf]."""
    vecs = np.zeros((bp.kernel_dim,) + model.shape)
    for k, (i, j) in enumerate(bp.kernel_modes):
        vecs[k, i, j] = 1.0
    return vecs


# ---------------------------------------------------------------------------
# Newton solvers

def _circle_generator(factor) -> np.ndarray:
    """d/dphi on one Fourier factor's coefficients: the frequency-k pair
    (cos, sin) maps to (k sin-coefficient, -k cos-coefficient)."""
    gen = np.zeros((factor.count, factor.count))
    for a in range(1, factor.count, 2):
        k = factor.frequencies[a]
        gen[a, a + 1] = k
        gen[a + 1, a] = -k
    return gen


class _Orbit:
    """The rotation orbit of a branch through the cos/sin kernel pair of one
    circle factor.  `generator` is d/dphi on that factor's coefficients: the
    rotation generator R of the flat coefficients applies it to the rows of
    the [nb, nf] coefficient array when the circle is the base (`on_base`;
    R then repeats it within every fiber degree) and to the columns when it
    is the fiber.  `phase` is the unit orbit direction R k / |R k| of the
    branch's kernel part k, [n]."""

    def __init__(self, generator, on_base, kernel_part):
        self.generator, self.on_base = generator, on_base
        phase = self.apply(kernel_part)
        self.phase = phase / np.linalg.norm(phase)

    def apply(self, c):
        """R c for flat coefficients c, [n]: one small product."""
        gen = self.generator
        if self.on_base:
            return (gen @ c.reshape(len(gen), -1)).ravel()
        return (c.reshape(-1, len(gen)) @ gen.T).ravel()


def _orbit(model, bp, align):
    """The orbit of a branch through `bp` whose kernel part points along
    `align` (flattened); None when there is no rotation orbit to fix (no
    branch point, a one-mode kernel) or `align` has no kernel part.  A
    kernel that is neither one mode nor the cos/sin pair of one
    circle-factor frequency raises PreconditionError."""
    if bp is None or bp.kernel_dim == 1:
        return None

    def is_pair(factor, a, b):
        return factor.label == "fourier" and a % 2 == 1 and b == a + 1

    on_base = None
    if bp.kernel_dim == 2:
        (i1, j1), (i2, j2) = sorted(bp.kernel_modes)
        if j1 == j2 and is_pair(model.base, i1, i2):
            on_base = True
        elif i1 == i2 and is_pair(model.fiber, j1, j2):
            on_base = False
    if on_base is None:
        raise PreconditionError(
            f"kernel modes {list(bp.kernel_modes)} are not the cos/sin pair of one "
            "circle-factor frequency; the bordered corrector supports one-mode "
            "kernels and such pairs only"
        )
    span = kernel_vectors(model, bp).reshape(bp.kernel_dim, -1)
    coords = span @ align
    if np.linalg.norm(coords) <= 1e-12:
        return None
    circle = model.base if on_base else model.fiber
    return _Orbit(_circle_generator(circle), on_base, coords @ span)


# A linear solve stops at a normwise backward error |r - M x| / (|M| |x| + |r|)
# of _BACKWARD_ULPS ulps, with |P|_F for |M|.  |P|_F overstates |M| several
# times over on these systems, where LU with partial pivoting reaches about
# 0.01 ulps of it; a quarter ulp keeps a step near a branch point (condition
# about 2e5) within 1e-11 of the LU step.  A cycle that does not halve the
# residual has met the rounding of the matrix-free product, and is accepted
# within _FLOOR_ULPS, the textbook bound of LU.  A Newton step needs less:
# with the forcing term eta_k = min(_FORCING, |F_k|), a step whose residual
# is at most eta_k |F_k| keeps Newton's local quadratic convergence (Dembo,
# Eisenstat & Steihaug 1982), so the Newton loops stop their solves there.
_BACKWARD_ULPS = 0.25
_FLOOR_ULPS = 16
_FORCING = 1e-2
_EPS = float(np.finfo(float).eps)


class _Linear:
    """The linearized system at one evaluated state,

        M = [[J + mu R   cols  ],
             [rows       corner]],

    J the Jacobian of `residual`, R the rotation generator of `orbit` (if
    any) and q = len(corner) border rows and columns, applied without an
    n_modes x n_modes matrix.  Vectors are the flat coefficients followed
    by the q border unknowns."""

    def __init__(self, ev, cols, rows, corner, orbit=None, mu=0.0):
        self.ev, self.orbit, self.mu = ev, orbit, mu
        self.cols, self.rows, self.corner = cols, rows, corner
        self.size = ev.model.n_modes + len(corner)     # the order of M

    def apply(self, x):
        """M x."""
        model = self.ev.model
        n = model.n_modes
        c, z = x[:n], x[n:]
        y = np.empty_like(x)
        y[:n] = galerkin.jacobian_apply(self.ev, c.reshape(model.shape)).ravel()
        y[:n] += self.cols @ z
        if self.orbit is not None:
            y[:n] += self.mu * self.orbit.apply(c)
        y[n:] = self.rows @ c + self.corner @ z
        return y


class _Preconditioner:
    """P^-1 for a `_Linear` M, with P the matrix M whose J + mu R is
    replaced by its fiber-constant model: the entries between different
    fiber degrees zeroed, degree 0 kept (J_00 + mu R_00, R_00 the base
    circle's generator, zero for the fiber circle's), and every degree
    j >= 1 taken to be J_00 + c_j I, c_j = a_m lam_j / t.

    J_00 is the evaluation's `degree_zero_block` for every nf.  At a
    fiber-constant state J has exactly these blocks, and mu vanishes on
    solutions, so there P = M.  One `eigh` J_00 = Q Lambda Q^T inverts every degree
    j >= 1 as Q (Lambda + c_j)^-1 Q^T, two small products for all of them;
    their elimination leaves degree 0 with the border as one dense Schur
    system of order nb + q, inverted once, as P^-1 is applied at every
    GMRES step.  When nf = 1 that system is M itself and is solved as it
    stands.  A zero or non-finite Lambda_i + c_j, or a singular Schur
    system, raises numpy.linalg.LinAlgError."""

    def __init__(self, lin):
        ev, orbit, model = lin.ev, lin.orbit, lin.ev.model
        nb, nf = model.shape
        q = len(lin.corner)
        self.ev, self.shape = ev, (nb, nf)
        block = ev.degree_zero_block
        if nf > 1:
            lam, self.basis = np.linalg.eigh(block)
            shifts = model.a_m * model.fiber.eigenvalues[1:] / ev.t
            self.shifted = lam[:, None] + shifts                    # Lambda_i + c_j, [nb, nf-1]
            with np.errstate(divide="ignore"):
                self.scale = 1.0 / self.shifted
            if not (np.isfinite(self.shifted).all() and np.isfinite(self.scale).all()):
                raise np.linalg.LinAlgError("singular fiber block")
        if orbit is not None and orbit.on_base and lin.mu != 0.0:
            block = block + lin.mu * orbit.generator
        cols3, rows3 = lin.cols.reshape(nb, nf, q), lin.rows.reshape(q, nb, nf)
        schur = np.empty((nb + q, nb + q))
        schur[:nb, :nb] = block
        schur[:nb, nb:] = cols3[:, 0]
        schur[nb:, :nb] = rows3[:, :, 0]
        schur[nb:, nb:] = lin.corner
        if nf == 1:
            self.schur = schur
            return
        self.rows_up = rows3[:, :, 1:].reshape(q, nb * (nf - 1))          # (i, j)
        cols_up = cols3[:, 1:]
        self.norm = float(np.sqrt(sum(np.vdot(a, a) for a in (
            schur, self.shifted, cols_up, self.rows_up))))
        self.w = self._invert_up(cols_up)                                 # [nb, nf-1, q]
        schur[nb:, nb:] -= self.rows_up @ self.w.reshape(nb * (nf - 1), q)
        self.schur_inv = np.linalg.inv(schur)

    def _invert_up(self, b):
        """(J_00 + c_j I)^-1 b[:, j - 1] for every degree j >= 1, b [nb, nf-1, k]."""
        basis = self.basis
        nb = len(basis)
        coef = (basis.T @ b.reshape(nb, -1)).reshape(b.shape) * self.scale[:, :, None]
        return (basis @ coef.reshape(nb, -1)).reshape(b.shape)

    def __call__(self, r):
        """P^-1 r."""
        nb, nf = self.shape
        if nf == 1:
            return np.linalg.solve(self.schur, r)
        n = nb * nf
        rc = r[:n].reshape(nb, nf)
        y = self._invert_up(rc[:, 1:, None])[:, :, 0]                     # [nb, nf-1]
        s = self.schur_inv @ np.concatenate([rc[:, 0], r[n:] - self.rows_up @ y.ravel()])
        x = np.empty_like(r)
        xc = x[:n].reshape(nb, nf)
        xc[:, 0] = s[:nb]
        xc[:, 1:] = y - self.w @ s[nb:]
        x[n:] = s[nb:]
        return x


def _solve_linear(lin, r, pre=None, rtol=0.0):
    """Solve M x = r for the `_Linear` M; returns x and the preconditioner
    it used, to be passed back for the next step of the same Newton solve.

    The first sweep is x = P^-1 r.  When nf = 1, P = M and that is the
    answer.  Otherwise GMRES on M P^-1 (Saad & Schultz 1986) refines it
    until |r - M x|, on the true M, is at most the larger of rtol |r| and
    _BACKWARD_ULPS ulps of normwise backward error: rtol = 0 asks for the
    full accuracy, a Newton step passes its forcing term.  `pre`, a
    preconditioner built at an earlier state, is kept unless its first
    sweep fails to contract the residual, and then refactored at this
    state: refining costs less than factoring.  A singular P, or a Krylov
    space exhausted (the order of M steps) short of the bound, raises
    numpy.linalg.LinAlgError."""
    nf = lin.ev.model.shape[1]
    if pre is None or nf == 1:
        pre = _Preconditioner(lin)
    x = pre(r)
    if nf == 1:
        return x, pre
    r_norm = float(np.linalg.norm(r))
    res = r - lin.apply(x)
    beta = float(np.linalg.norm(res))
    if beta >= r_norm and pre.ev is not lin.ev:
        pre = _Preconditioner(lin)
        x = pre(r)
        res = r - lin.apply(x)
        beta = float(np.linalg.norm(res))
    used, previous = 0, math.inf
    while True:
        ulp = _EPS * (pre.norm * float(np.linalg.norm(x)) + r_norm)
        bound = max(_BACKWARD_ULPS * ulp, rtol * r_norm)
        if beta <= bound or (beta > 0.5 * previous and beta <= _FLOOR_ULPS * ulp):
            return x, pre
        if used >= lin.size:
            raise np.linalg.LinAlgError(
                f"Krylov space exhausted at a backward error of "
                f"{beta / ulp:.3g} ulps"
            )
        step, taken = _gmres(lin, pre, res, beta, bound, lin.size - used)
        x = x + step
        used += taken
        res = r - lin.apply(x)
        previous, beta = beta, float(np.linalg.norm(res))


def _gmres(lin, pre, res, beta, bound, limit):
    """One GMRES cycle from the residual `res` = r - M x: the correction
    P^-1 V y that minimizes |res - M P^-1 V y| over the Arnoldi basis V,
    built (classical Gram-Schmidt, twice) until the least-squares residual,
    tracked by Givens rotations, is at most `bound` or `limit` steps are
    taken.  Returns (correction, steps)."""
    basis = np.empty((limit + 1, len(res)))
    zs = np.empty((limit, len(res)))
    basis[0] = res / beta
    tri, g, rot = [], [beta], []
    for k in range(limit):
        zs[k] = pre(basis[k])
        w = lin.apply(zs[k])
        v = basis[:k + 1]
        h = v @ w
        w -= h @ v
        h2 = v @ w
        w -= h2 @ v
        h_next = math.sqrt(w @ w)
        col = (h + h2).tolist()
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        d = math.hypot(col[k], h_next)
        if d == 0.0:
            raise np.linalg.LinAlgError("singular system: the Arnoldi process broke down")
        c, s = col[k] / d, h_next / d
        rot.append((c, s))
        col[k] = d
        tri.append(col)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= bound:
            break
        basis[k + 1] = w / h_next
    m = len(tri)
    y = [0.0] * m
    for i in reversed(range(m)):
        y[i] = (g[i] - sum(tri[j][i] * y[j] for j in range(i + 1, m))) / tri[i][i]
    return np.array(y) @ zs[:m], m


def _bordered_linear(ev, orbit, row, mu=0.0):
    """The `_Linear` for the square Jacobian of the bordered system at
    the evaluated state `ev` (a `galerkin.Evaluation`): unknowns (c, t)
    and, with an orbit, mu; rows residual + mu R c, then with an orbit
    the phase row, then `row` over (c, t)."""
    n = ev.model.n_modes
    q = 1 if orbit is None else 2
    cols, rows, corner = np.empty((n, q)), np.empty((q, n)), np.zeros((q, q))
    cols[:, 0] = galerkin.residual_t_derivative(ev).ravel()
    rows[-1] = row[:n]
    corner[-1, 0] = row[n]
    if orbit is None:
        return _Linear(ev, cols, rows, corner)
    cols[:, 1] = orbit.apply(ev.state.coeffs.ravel())
    rows[0] = orbit.phase
    return _Linear(ev, cols, rows, corner, orbit, mu)


def _newton(evaluate, linear, x, tol):
    """Damped Newton on a square system F(x) = 0, the one Newton loop of the
    corrector and the complement solves.  `evaluate(x)` returns (F, ev,
    plain): ev the `galerkin.Evaluation` of x's state, plain the norm of its
    residual alone; `linear(ev, x)` is the `_Linear` Jacobian of F there.

    Each step is one `_solve_linear` to the forcing term min(_FORCING, |F|),
    keeping the preconditioner while it contracts, and is halved until |F|
    falls by a quarter of the fraction taken (or below `tol`); a candidate
    with no state (t <= 0) or not positive on the grid is halved too.  Stops
    when |F| and plain are below `tol` and returns (x, ev, plain, pre), pre
    the last preconditioner (None when no step was taken).  A singular step
    raises numpy.linalg.LinAlgError, a start off the positive cone
    PositivityViolationError; halving below _MIN_DAMPING, or MAX_NEWTON_ITER
    steps, raise NoConvergenceError, whose `positivity_boundary` tells
    whether a candidate was not positive."""
    pre, positivity_seen = None, False
    F, ev, plain = evaluate(x)
    norm = float(np.linalg.norm(F))
    what = f"did not converge in {MAX_NEWTON_ITER} steps"
    for _ in range(MAX_NEWTON_ITER):
        if norm < tol and plain < tol:
            return x, ev, plain, pre
        step, pre = _solve_linear(linear(ev, x), -F, pre, min(_FORCING, norm))
        alpha = 1.0
        while alpha >= _MIN_DAMPING:
            cand = x + alpha * step
            try:
                F_new, ev_new, plain_new = evaluate(cand)
            except PositivityViolationError:
                positivity_seen = True
            except InvalidArgumentError:        # t <= 0: no state to evaluate
                pass
            else:
                new_norm = float(np.linalg.norm(F_new))
                if new_norm <= (1 - 0.25 * alpha) * norm or new_norm < tol:
                    x, F, ev, plain, norm = cand, F_new, ev_new, plain_new, new_norm
                    break
            alpha *= 0.5
        else:
            what = "stalled"
            break
    cone = "; damped steps left the positive cone" if positivity_seen else ""
    raise NoConvergenceError(
        f"Newton {what} near t = {ev.state.t} (residual {norm:.3e}){cone}",
        positivity_boundary=positivity_seen,
    )


def _solve_bordered(model, coeffs, t, orbit, row, target):
    """`_newton` on the square bordered system

        residual(c, t) + mu R c = 0,  <phase, c> = 0,  row . (c, t) = target

    (the mu term and the phase row only with an `_Orbit`; the phase row lies
    in the kernel span, orthogonal to the constant, so it reads
    <phase, c - c_triv> = 0) to TOL_NEWTON, from (coeffs, t) and mu = 0.
    Returns the converged evaluation (its `.state` is the solution), mu and
    the last preconditioner, for a tangent at the solution.  Raises
    NoConvergenceError, also for a singular bordered matrix."""
    n = model.n_modes
    row = np.asarray(row, dtype=float)

    def mu_of(x):
        return 0.0 if orbit is None else float(x[n + 1])

    def evaluate(x):
        c = x[:n]
        ev = galerkin.Evaluation(model, State(x[n], c.reshape(model.shape)))
        res = ev.residual.ravel()
        last = row @ x[:n + 1] - target
        if orbit is None:
            full = np.append(res, last)
        else:
            full = np.concatenate([res + x[n + 1] * orbit.apply(c),
                                   [orbit.phase @ c, last]])
        return full, ev, ev.residual_norm

    x = np.append(np.asarray(coeffs, dtype=float).ravel(),
                  [float(t)] if orbit is None else [float(t), 0.0])
    try:
        x, ev, _, pre = _newton(
            evaluate, lambda ev, x: _bordered_linear(ev, orbit, row, mu_of(x)),
            x, TOL_NEWTON)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"singular bordered matrix near t = {t}: {exc}") from exc
    return ev, mu_of(x), pre


def _switch_solve(model, bp, c_triv, n_hat, amplitude, start):
    """The branch-switching corrector of `switch_branch` and
    `verify_fiber_constancy`: pin <c - c_triv, n_hat> = amplitude, fix the
    phase along n_hat, and solve from `start` at t = bp.t.  Returns the
    converged evaluation."""
    orbit = _orbit(model, bp, n_hat)
    ev, _, _ = _solve_bordered(model, start, bp.t, orbit, np.append(n_hat, 0.0),
                               n_hat @ c_triv + amplitude)
    return ev


# ---------------------------------------------------------------------------
# branch switching

def switch_branch(model: GalerkinModel, bp: BranchPoint, amplitude: float) -> State:
    """Land on a nontrivial branch through bp: solve the equation in (c, t)
    with the amplitude along the first kernel mode n pinned to `amplitude`,
    from the one start u = 1 + amplitude * n at t = bp.t.  A corrector
    failure, or a solution that collapses back to u = 1, raises
    NoNontrivialSolutionError naming the cause.  Kernels other than one mode
    or one circle cos/sin pair raise PreconditionError."""
    if bp.kernel_dim < 1:
        raise PreconditionError("branch point has no kernel modes")
    amplitude = float(amplitude)
    c_triv = galerkin.constant_state(model, bp.t).coeffs.ravel()
    n_hat = kernel_vectors(model, bp)[0].ravel()
    try:
        ev = _switch_solve(model, bp, c_triv, n_hat, amplitude,
                           c_triv + amplitude * n_hat)
    except (NoConvergenceError, PositivityViolationError) as exc:
        cause = str(exc)
    else:
        if ev.u_distance > _NONTRIVIAL_NORM:
            return ev.state
        cause = "the solution collapsed to u = 1"
    raise NoNontrivialSolutionError(
        f"no nontrivial branch found at t = {bp.t} (amplitude {amplitude}): {cause}"
    )


# ---------------------------------------------------------------------------
# pseudo-arclength continuation

@dataclass(frozen=True)
class Branch:
    """A followed branch: its samples are `galerkin.Evaluation`s, the first
    the switch solution, each read for its measurements (t, u_distance,
    energy, fiber_fraction, residual_norm)."""

    samples: tuple
    origin: BranchPoint | None
    stop_reason: str
    fiber_margin: float | None = None   # smallest over the samples; fiber-constant branches

    def __len__(self):
        return len(self.samples)

    @property
    def ts(self):
        return np.array([s.t for s in self.samples])

    @property
    def distances(self):
        return np.array([s.u_distance for s in self.samples])


def _tangent(ev, orbit, last_row, pre=None):
    """Unit tangent (dc, dt) of the branch at the evaluated solution `ev`
    (a `galerkin.Evaluation`, as the corrector returns it): one full-accuracy
    solve of the bordered matrix with `last_row` over (c, t) as its last row
    and right side e_last, so the tangent has a positive component along
    `last_row` (the previous tangent, or the unit offset from u = 1 at the
    start).  `pre` is the corrector's preconditioner, kept while it
    contracts."""
    lin = _bordered_linear(ev, orbit, np.asarray(last_row, dtype=float))
    rhs = np.zeros(lin.size)
    rhs[-1] = 1.0
    try:
        v = _solve_linear(lin, rhs, pre)[0][:ev.model.n_modes + 1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(
            f"singular tangent system at t = {ev.t}: {exc}"
        ) from exc
    return v / np.linalg.norm(v)


def continue_branch(model: GalerkinModel, start: State, direction: int,
                    steps: int, ds: float, origin: BranchPoint | None = None) -> Branch:
    """Pseudo-arclength continuation from a converged solution.

    `direction` +1 follows the branch with growing distance from u = 1,
    -1 with shrinking distance (toward the branch point).  Stops early on
    positivity loss, corrector failure, or when the distance turns around
    (the turning sample is discarded so the kept prefix stays monotone).
    Two distances both below _NONTRIVIAL_NORM are the rounding of u = 1,
    so their order is no turnaround.
    The rotation orbit of a cos/sin kernel pair of `origin` is fixed by the
    phase of the start state; without `origin` no phase is fixed.
    """
    if not ds > 0:
        raise InvalidArgumentError(f"arclength step must be positive, got {ds}")
    if steps < 1:
        raise InvalidArgumentError(f"need steps >= 1, got {steps}")
    if direction not in (1, -1):
        raise InvalidArgumentError(f"direction must be +1 or -1, got {direction!r}")
    start_ev = galerkin.Evaluation(model, start)
    if start_ev.residual_norm > 10 * TOL_NEWTON:
        raise PreconditionError("start state does not satisfy the residual tolerance")

    c_triv = galerkin.constant_state(model, start.t).coeffs.ravel()
    offset = start.coeffs.ravel() - c_triv
    orbit = _orbit(model, origin, offset)

    # first tangent: positive along the offset from u = 1 (along t when the
    # start is u = 1 itself), then flipped to the requested direction
    offset_norm = np.linalg.norm(offset)
    first_row = (np.append(offset / offset_norm, 0.0) if offset_norm > 0
                 else np.append(offset, 1.0))
    x = np.concatenate([start.coeffs.ravel(), [start.t]])
    v = direction * _tangent(start_ev, orbit, first_row)

    samples = [start_ev]
    reason = "steps-exhausted"
    for step_no in range(steps):
        x_pred = x + ds * v
        try:
            ev, _, pre = _solve_bordered(
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
        dist, last = ev.u_distance, samples[-1].u_distance
        if (dist - last) * direction < 0 and max(dist, last) >= _NONTRIVIAL_NORM:
            reason = "turnaround"
            break
        x = np.concatenate([ev.state.coeffs.ravel(), [ev.t]])
        v = _tangent(ev, orbit, v, pre)
        samples.append(ev)
    return Branch(tuple(samples), origin, reason)


# ---------------------------------------------------------------------------
# horizontal branches on the fiber-constant subspace

def _padded(model, state):
    """A state of `model.fiber_constant` as a state of `model`: the [nb, 1]
    coefficients zero-padded to [nb, nf]."""
    coeffs = np.zeros(model.shape)
    coeffs[:, :1] = state.coeffs
    return State(state.t, coeffs)


def fiber_margin(model: GalerkinModel, ev: galerkin.Evaluation) -> float:
    """lambda_min(J_0) + a_m lam_1 / t at a fiber-constant state of `model`,
    given as `ev`, its evaluation in `model.fiber_constant`: J_0 is the
    nb x nb Jacobian there (its `degree_zero_block`), and one
    `eigvalsh` gives the margin.  Every fiber block
    J_jj = J_0 + (a_m lam_j / t) I of `model` with j >= 1 has its smallest
    eigenvalue at or above it, so a positive margin makes them all
    positive definite: no fiber-dependent mode is degenerate there."""
    lam1 = model.fiber.eigenvalues[1]
    return float(np.linalg.eigvalsh(ev.degree_zero_block)[0] + model.a_m * lam1 / ev.t)


def follow_branch(model: GalerkinModel, bp: BranchPoint, amplitude: float,
                  direction: int, steps: int, ds: float) -> Branch:
    """`switch_branch` onto the branch through bp, then `continue_branch` in
    `direction`; the branch's first sample is the switch solution.  A
    horizontal branch is followed on `model.fiber_constant`, every sample
    zero-padded to [nb, nf] and evaluated once in `model`, where its
    energy, distance, fiber fraction (exactly 0) and residual are read;
    the branch carries the smallest `fiber_margin` of its samples.  Any
    other kernel is followed in `model` itself."""
    sub = model.fiber_constant if bp.horizontal else model
    start = switch_branch(sub, bp, amplitude)
    branch = continue_branch(sub, start, direction, steps, ds, origin=bp)
    if not bp.horizontal:
        return branch
    return Branch(
        tuple(galerkin.Evaluation(model, _padded(model, s.state)) for s in branch.samples),
        bp, branch.stop_reason,
        fiber_margin=min(fiber_margin(model, s) for s in branch.samples),
    )


# ---------------------------------------------------------------------------
# double Lyapunov-Schmidt reduction

@dataclass(frozen=True)
class ReductionSample:
    alpha_full: np.ndarray         # complement correction, full space
    alpha_restricted: np.ndarray   # complement correction, fiber-constant space
    projected_residual_full: float
    projected_residual_restricted: float

    @property
    def difference(self) -> float:
        return float(np.linalg.norm(self.alpha_full - self.alpha_restricted))


@dataclass(frozen=True)
class ReductionResult:
    """The double reduction at one branch point.  It passes when the two
    complement solves agree below DISCREPANCY_BOUND at every sample."""

    kernel_dim: int
    samples: tuple
    discrepancy: float             # max |alpha_full - alpha_restricted|
    fiber_margin: float            # min `fiber_margin` at the restricted solutions

    @property
    def passed(self) -> bool:
        return self.discrepancy < DISCREPANCY_BOUND


def _complement_solve(model, t, base_coeffs, indices, start=None):
    """`_newton` on the complement-projected equation: find v supported on
    `indices` (flat) with P residual(base + v) = 0, from v = `start` (0 by
    default), to TOL_COMPLEMENT.  The unit vectors E of the other modes
    border it into a square system in (v, z), residual(base + v) + E z = 0
    and E^T v = 0, with Jacobian [[J, E], [E^T, 0]]: the multipliers z
    take up the kernel rows, and v is read on `indices` only, so E^T v = 0
    holds exactly.  Returns v, the final projected residual and the
    evaluation of base + v.  A singular step, a start that is not positive
    on the grid and a Newton failure raise ReductionFailedError naming the
    cause."""
    n = model.n_modes
    idx = np.asarray(indices, dtype=int)
    pinned = np.delete(np.arange(n), idx)
    unit = np.zeros((n, len(pinned)))
    unit[pinned, np.arange(len(pinned))] = 1.0
    corner = np.zeros((len(pinned), len(pinned)))
    base = np.asarray(base_coeffs, dtype=float).ravel()

    def evaluate(x):
        c = base.copy()
        c[idx] += x[idx]
        ev = galerkin.Evaluation(model, State(t, c.reshape(model.shape)))
        res = ev.residual.ravel()
        full = np.append(res, np.zeros(len(pinned)))
        full[pinned] += x[n:]
        return full, ev, float(np.linalg.norm(res[idx]))

    x = np.zeros(n + len(pinned))
    if start is not None:
        x[idx] = start
    try:
        x, ev, norm, _ = _newton(
            evaluate, lambda ev, x: _Linear(ev, unit, unit.T, corner),
            x, TOL_COMPLEMENT)
    except np.linalg.LinAlgError as exc:
        raise ReductionFailedError(
            f"complement Jacobian is singular ({exc}); the kernel split is invalid"
        ) from exc
    except (NoConvergenceError, PositivityViolationError) as exc:
        raise ReductionFailedError(f"complement solve failed: {exc}") from exc
    return x[idx], norm, ev


def lyapunov_schmidt_reduce(model: GalerkinModel, bp: BranchPoint,
                            sample_radius: float, n_samples: int,
                            seed: int = 0) -> ReductionResult:
    """Solve the complement equation v = alpha(n) for sampled kernel vectors
    n twice, over the full complement and over the fiber-constant complement
    only, and report the largest disagreement.  Agreement is the discretized
    form of the statement that both reductions produce the same branch, which
    forces the bifurcating solutions to be fiber-constant.  The restricted
    solve runs on `model.fiber_constant`, which the residual leaves
    invariant, so it is the same equation on nb modes, from v = 0.  The full
    solve in `model` starts from a fiber-mixed v of norm `sample_radius`,
    seeded by `seed`: from v = 0 it would stay in the invariant subspace and
    agree by construction, while from off it agreement shows that its
    solution near the kernel is the fiber-constant one.  The smallest
    `fiber_margin` at the restricted solutions is the premise of their
    agreement (every fiber block invertible)."""
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
    fc_comp = [i for i in range(nb) if (i, 0) not in set(bp.kernel_modes)]

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

    rng = np.random.default_rng(seed)
    samples = []
    worst = 0.0
    margin = np.inf
    for coeffs in coords:
        n_vec = sample_radius * sum(c * v for c, v in zip(coeffs, vecs))
        base = c_triv + n_vec
        mixed = rng.standard_normal(len(full_comp))
        vf, rf, _ = _complement_solve(model, bp.t, base, full_comp,
                                      sample_radius * mixed / np.linalg.norm(mixed))
        vr, rr, restricted = _complement_solve(model.fiber_constant, bp.t,
                                               base.reshape(model.shape)[:, :1], fc_comp)
        alpha_full = np.zeros(model.n_modes)
        alpha_full[full_comp] = vf
        alpha_restricted = np.zeros(model.shape)
        alpha_restricted[fc_comp, 0] = vr
        sample = ReductionSample(
            alpha_full=alpha_full.reshape(model.shape),
            alpha_restricted=alpha_restricted,
            projected_residual_full=rf,
            projected_residual_restricted=rr,
        )
        samples.append(sample)
        worst = max(worst, sample.difference)
        margin = min(margin, fiber_margin(model, restricted))
    return ReductionResult(bp.kernel_dim, tuple(samples), worst, margin)


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
    max_fraction: float

    @property
    def nontrivial(self) -> int:
        """The number of trials that converged to a nontrivial solution."""
        return sum(row.nontrivial for row in self.trials)

    @property
    def passed(self) -> bool:
        return self.nontrivial > 0 and not any(row.violation for row in self.trials)


def verify_fiber_constancy(model: GalerkinModel, bp: BranchPoint, trials: int,
                           seed: int = 0, amplitude: float = 1e-2) -> FiberConstancyReport:
    """Falsification channel for fiber-constancy of the bifurcating branch:
    branch-switch from seeded random perturbations that mix kernel and
    fiber-mode components; every converged nontrivial solution must shed its
    fiber content below FIBER_FRACTION_BOUND.  Violations are reported, not
    raised; the report passes when there are none and at least one trial
    converged to a nontrivial solution.  A zero amplitude pins every trial
    to u = 1 and is refused with InvalidArgumentError."""
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
    if amplitude == 0:
        raise InvalidArgumentError(f"need amplitude != 0, got {amplitude}")

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
            ev = _switch_solve(model, bp, c_triv, n_hat, amplitude, start)
        except (NoConvergenceError, PositivityViolationError):
            rows_out.append(TrialRow(trial, False, False, None, None, None, False))
            continue
        dist = ev.u_distance
        if dist <= _NONTRIVIAL_NORM:
            rows_out.append(TrialRow(trial, True, False, ev.t, dist, None, False))
            continue
        fraction = ev.fiber_fraction
        max_fraction = max(max_fraction, fraction)
        rows_out.append(TrialRow(
            trial, True, True, ev.t, dist, fraction,
            fraction >= FIBER_FRACTION_BOUND,
        ))
    return FiberConstancyReport(bp, tuple(rows_out), seed, max_fraction)
