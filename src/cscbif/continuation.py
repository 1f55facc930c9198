"""Branch structure of the discretized constant-scalar-curvature equation.

Given a Galerkin model, this module takes the branch points from the exact
degeneracy roots of the resolved mode pairs below the window's truncation
heights (`variation.window_roots`; no float search), switches onto the
bifurcating branches, follows them by pseudo-arclength continuation, and
runs a finite-dimensional two-subspace
Lyapunov-Schmidt reduction whose agreement certifies that the bifurcating
solutions are constant along the fibers.

One damped Newton loop (`_newton`) solves every nonlinear system here:
the corrector that branch switching, continuation and the fiber-constancy
trials share, a square bordered system (Keller's pseudo-arclength
corrector in the bordered form of Govaerts), and the complement solves of
the reduction, made square by their kernel pins.  Its linear solves go by
fiber degree (`_solve_linear`): a preconditioner that keeps the dense
degree-0 block with the border and inverts every fiber degree j >= 1 by
its diagonal, refined by GMRES on the true operator.  The loop and its
linear solves work on a stack of independent systems at once: the trials
of a branch point are one stack, and so are its full-complement samples
and its restricted samples, evaluated, factored and stepped together
while each member keeps its own tolerances, damping, outcome and error.
So are branches: `follow_branch` switches the branch points of one group
as one stack and continues them in lockstep, each step one corrector and
one tangent solve over the members still running, and a followed branch
is one evaluation of its samples as a stack.
In the corrector the unknowns are (c, t) and the equations are
residual(c, t) = 0 plus one affine row: the amplitude pin <c - c_triv, n> = amplitude when switching,
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

import copy
import itertools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import galerkin, variation
from .errors import (
    CscbifError,
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
    constant one, grouped by exact equality.  Pairs above the heights of
    `variation.pair_truncation_bounds` at the window's exact ends have no
    root in it and vanish nowhere identically, so they are not solved.
    Raises NondiscreteDegeneracyError when some pair vanishes identically."""
    t_min, t_max = variation._check_window(t_min, t_max)
    b_max, lam_max = variation.pair_truncation_bounds(model.family, Fraction(t_min),
                                                      Fraction(t_max))
    pairs = ((mode, b, lam) for mode, (b, lam) in model.eigentable(b_max, lam_max))
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
#
# Every solver below works on a stack of k independent systems, one per
# member, along a leading axis: vectors are [k, N].

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
    is the fiber.  `phase` is the unit orbit direction R k / |R k| of each
    branch's kernel part k, [k, n] for a stack of k branches."""

    def __init__(self, generator, on_base, kernel_part):
        self.generator, self.on_base = generator, on_base
        phase = self.apply(kernel_part)
        self.phase = phase / galerkin.norms(phase)[:, None]

    def apply(self, c):
        """R c for a stack of flat coefficients c [k, n]: one small
        product."""
        gen, lead = self.generator, c.shape[:-1]
        if self.on_base:
            return (gen @ c.reshape(lead + (len(gen), -1))).reshape(c.shape)
        return (c.reshape(lead + (-1, len(gen))) @ gen.T).reshape(c.shape)

    def take(self, members):
        """The orbit of the members `members` of a stack of branches."""
        orbit = copy.copy(self)
        orbit.phase = self.phase[members]
        return orbit


def _orbit_kind(model, bp):
    """The rotation orbit of a branch through `bp`: None when there is none
    to fix (no branch point, a one-mode kernel), True for the cos/sin
    kernel pair of one base-circle frequency and False for one of the
    fiber circle.  A branch point with no kernel modes, or any other
    kernel, raises PreconditionError."""
    if bp is None:
        return None
    if bp.kernel_dim < 1:
        raise PreconditionError("branch point has no kernel modes")
    if bp.kernel_dim == 1:
        return None

    def is_pair(factor, a, b):
        return factor.label == "fourier" and a % 2 == 1 and b == a + 1

    if bp.kernel_dim == 2:
        (i1, j1), (i2, j2) = sorted(bp.kernel_modes)
        if j1 == j2 and is_pair(model.base, i1, i2):
            return True
        if i1 == i2 and is_pair(model.fiber, j1, j2):
            return False
    raise PreconditionError(
        f"kernel modes {list(bp.kernel_modes)} are not the cos/sin pair of one "
        "circle-factor frequency; the bordered corrector supports one-mode "
        "kernels and such pairs only"
    )


def _orbit(model, points, align):
    """The orbit of a stack of branches, member i through `points[i]` (all
    of one `_orbit_kind`; None: no branch points) with its kernel part
    along `align[i]` (flattened, [k, n]).  None when there is no rotation
    orbit to fix, or no member's `align` has a kernel part; a stack where
    only some members have one raises PreconditionError."""
    kinds = {None} if points is None else {_orbit_kind(model, bp) for bp in set(points)}
    if len(kinds) > 1:
        raise InvalidArgumentError("the branches of one stack must share their orbit kind")
    (on_base,) = kinds
    if on_base is None:
        return None
    nf = model.shape[1]
    part = np.zeros(np.shape(align))          # the kernel parts; kernel vectors are unit modes
    for i, bp in enumerate(points):
        modes = [r * nf + c for r, c in bp.kernel_modes]
        part[i, modes] = align[i, modes]
    empty = galerkin.norms(part) <= 1e-12
    if empty.all():
        return None
    if empty.any():
        raise PreconditionError("some branches of the stack have no kernel part to fix "
                                "the phase of")
    circle = model.base if on_base else model.fiber
    return _Orbit(_circle_generator(circle), on_base, part)


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
    """The linearized systems at a stack of k evaluated states, one per
    member,

        M = [[J + mu R   cols  ],
             [rows       corner]],

    J the Jacobian of `residual`, R the rotation generator of `orbit` (if
    any) and q border rows and columns, applied without an n_modes x
    n_modes matrix.  cols [k, n, q], rows [k, q, n], corner [k, q, q] and
    mu [k] (zero when not given; None without an orbit); a border given
    without the member axis is every member's.  Vectors are stacks [k, N]
    of the flat coefficients followed by the q border unknowns."""

    def __init__(self, ev, cols, rows, corner, orbit=None, mu=None):
        k = len(ev)
        if cols.ndim == 2:
            cols, rows, corner = (np.broadcast_to(a, (k,) + a.shape) for a in (cols, rows, corner))
        self.ev, self.orbit = ev, orbit
        self.cols, self.rows, self.corner = cols, rows, corner
        self.mu = None if orbit is None else np.zeros(k) if mu is None else mu
        self.size = ev.model.n_modes + corner.shape[-1]     # the order of M

    def apply(self, x):
        """M x, member by member."""
        model = self.ev.model
        n, k = model.n_modes, len(x)
        c, z = x[:, :n], x[:, n:, None]
        y = np.empty_like(x)
        y[:, :n] = galerkin.jacobian_apply(self.ev, c.reshape((k,) + model.shape)).reshape(k, n)
        y[:, :n] += (self.cols @ z)[:, :, 0]
        if self.orbit is not None:
            y[:, :n] += self.mu[:, None] * self.orbit.apply(c)
        y[:, n:] = (self.rows @ c[:, :, None])[:, :, 0] + (self.corner @ z)[:, :, 0]
        return y


def _factor(routine, failed, mats, *operands):
    """A numpy.linalg `routine` on a stack of matrices [k, m, m] (and its
    other operands, with the same member axis) as one call.  When that call
    raises LinAlgError, every member that raises it alone gets its error in
    `failed` and the identity in its place, so it fails only itself."""
    try:
        return routine(mats, *operands)
    except np.linalg.LinAlgError:
        mats = mats.copy()
        for i in range(len(mats)):
            try:
                routine(mats[i], *(a[i] for a in operands))
            except np.linalg.LinAlgError as exc:
                failed[i] = failed[i] or exc
                mats[i] = np.eye(mats.shape[-1])
        return routine(mats, *operands)


class _Preconditioner:
    """P^-1 for each member of a `_Linear` stack M, with P the matrix M
    whose J + mu R is replaced by a block-diagonal model: the entries
    between different fiber degrees zeroed, degree 0 kept (J_00 + mu R_00,
    R_00 the base circle's generator, zero for the fiber circle's), and
    every degree j >= 1 taken to be D + c_j I, D the diagonal of J_00 and
    c_j = a_m lam_j / t.  J_00 is the evaluation's `degree_zero_block`.

    The degrees j >= 1 are inverted entry by entry; their elimination
    leaves degree 0 with the border as one dense Schur system of order
    nb + q, inverted once (one `inv` call for the stack), as P^-1 is applied
    at every GMRES step.  When nf = 1 that system is M itself and is solved
    as it stands.  At a constant state J_00 is diagonal and no entry joins
    two degrees, so there P = M; near one c_j dominates the degree-j
    blocks, and GMRES on the true operator takes up the rest.  A
    fiber-mixed Newton solve factors P at its first step and keeps each
    member's to the end; `take` drops the members that leave.  A member
    with a zero or non-finite D_i + c_j, or a singular Schur system, has
    its numpy.linalg.LinAlgError in `failed` (at the first solve when
    nf = 1).  `norm`, the |M| of the backward-error stops, is the Frobenius
    norm of P with J_00 + c_j I at every degree j >= 1."""

    _STACKED = ("scale", "rows_up", "w", "schur_inv", "norm", "schur")

    def __init__(self, lin):
        ev, orbit, model = lin.ev, lin.orbit, lin.ev.model
        nb, nf = model.shape
        k, q = lin.corner.shape[:2]
        self.shape, self.failed = (nb, nf), [None] * k
        block = ev.degree_zero_block
        if nf > 1:
            shifts = model.a_m * model.fiber.eigenvalues[1:] / ev.t[:, None]    # c_j, [k, nf-1]
            shifted = np.diagonal(block, axis1=1, axis2=2)[:, :, None] + shifts[:, None, :]
            with np.errstate(divide="ignore"):
                self.scale = 1.0 / shifted                                  # [k, nb, nf-1]
            # the sum over j of |J_00 + c_j I|_F^2 = |J_00|_F^2 + 2 c_j tr J_00 + nb c_j^2
            flat = block.reshape(k, -1)
            up = ((nf - 1) * np.vecdot(flat, flat)
                  + 2 * np.trace(block, axis1=1, axis2=2) * shifts.sum(axis=1)
                  + nb * np.vecdot(shifts, shifts))
            finite = (np.isfinite(shifted) & np.isfinite(self.scale)).all(axis=(1, 2))
            for i in np.flatnonzero(~finite):
                self.failed[i] = self.failed[i] or np.linalg.LinAlgError("singular fiber block")
                self.scale[i] = 0.0
        if orbit is not None and orbit.on_base:
            block = block + lin.mu[:, None, None] * orbit.generator
        cols4, rows4 = lin.cols.reshape(k, nb, nf, q), lin.rows.reshape(k, q, nb, nf)
        schur = np.empty((k, nb + q, nb + q))
        schur[:, :nb, :nb] = block
        schur[:, :nb, nb:] = cols4[:, :, 0]
        schur[:, nb:, :nb] = rows4[:, :, :, 0]
        schur[:, nb:, nb:] = lin.corner
        if nf == 1:
            self.schur = schur
            return
        self.rows_up = rows4[:, :, :, 1:].reshape(k, q, nb * (nf - 1))    # (i, j)
        cols_up = cols4[:, :, 1:]
        for a in (schur, cols_up, self.rows_up):
            flat = a.reshape(k, -1)
            up = up + np.vecdot(flat, flat)
        self.norm = np.sqrt(up)
        self.w = cols_up * self.scale[..., None]                          # [k, nb, nf-1, q]
        schur[:, nb:, nb:] -= self.rows_up @ self.w.reshape(k, nb * (nf - 1), q)
        self.schur_inv = _factor(np.linalg.inv, self.failed, schur)

    def __call__(self, r):
        """P^-1 r, member by member."""
        nb, nf = self.shape
        if nf == 1:
            return _factor(np.linalg.solve, self.failed, self.schur, r[:, :, None])[:, :, 0]
        k, n = len(r), nb * nf
        rc = r[:, :n].reshape(k, nb, nf)
        y = rc[:, :, 1:] * self.scale                                     # [k, nb, nf-1]
        border = r[:, n:] - (self.rows_up @ y.reshape(k, -1, 1))[:, :, 0]
        s = (self.schur_inv @ np.concatenate([rc[:, :, 0], border], axis=1)[:, :, None])[:, :, 0]
        x = np.empty_like(r)
        xc = x[:, :n].reshape(k, nb, nf)
        xc[:, :, 0] = s[:, :nb]
        xc[:, :, 1:] = y - (self.w @ s[:, None, nb:, None])[..., 0]
        x[:, n:] = s[:, nb:]
        return x

    def take(self, members):
        """The preconditioner of the members `members`."""
        pre = copy.copy(self)
        for name in self._STACKED:
            if hasattr(self, name):
                setattr(pre, name, getattr(self, name)[members])
        pre.failed = [self.failed[i] for i in members]
        return pre


def _solve_linear(lin, r, pre=None, rtol=0.0):
    """Solve M x = r for every member of the `_Linear` stack M, r [k, N];
    returns x, the preconditioner it used, to be passed back for the next
    step of the same Newton solve, and per member None or the
    numpy.linalg.LinAlgError that failed it.

    The first sweep is x = P^-1 r.  When nf = 1, P = M is built for every
    call and that is the answer.  Otherwise GMRES on M P^-1 (Saad & Schultz
    1986) refines each member until its |r - M x|, on the true M, is at
    most the larger of rtol |r| and _BACKWARD_ULPS ulps of normwise backward
    error: rtol = 0 asks for the full accuracy, a Newton step passes its
    forcing term (rtol may be one per member).  A `pre` passed in, built at
    an earlier state, is used as it stands; GMRES absorbs its drift.  A
    singular P, or a Krylov space exhausted (the order of M steps) short of
    the bound, fails the member."""
    nf = lin.ev.model.shape[1]
    if pre is None or nf == 1:
        pre = _Preconditioner(lin)
    x = pre(r)
    if nf == 1:
        return x, pre, pre.failed
    r_norm = galerkin.norms(r)
    res = r - lin.apply(x)
    beta = galerkin.norms(res)
    k = len(r)
    failed = list(pre.failed)
    going = np.array([f is None for f in failed])
    rtol = np.broadcast_to(rtol, (k,))
    used, previous = np.zeros(k, dtype=int), np.full(k, math.inf)
    while True:
        ulp = _EPS * (pre.norm * galerkin.norms(x) + r_norm)
        bound = np.maximum(_BACKWARD_ULPS * ulp, rtol * r_norm)
        going &= ~((beta <= bound) | ((beta > 0.5 * previous) & (beta <= _FLOOR_ULPS * ulp)))
        for i in np.flatnonzero(going & (used >= lin.size)):
            failed[i] = np.linalg.LinAlgError(
                f"Krylov space exhausted at a backward error of {beta[i] / ulp[i]:.3g} ulps")
            going[i] = False
        if not going.any():
            return x, pre, failed
        members = np.flatnonzero(going)

        def operator(v, rows, members=members):
            """P^-1 v and M P^-1 v for the members `members[rows]`, applied
            to the whole stack with zero vectors for the others, so that no
            member's data is copied."""
            rows = members[rows]
            if len(rows) < k:
                padded = np.zeros((k, lin.size))
                padded[rows] = v
                v = padded
            z = pre(v)
            w = lin.apply(z)
            return (z, w) if len(rows) == k else (z[rows], w[rows])

        step, taken, broken = _gmres(operator, res[members], beta[members],
                                     bound[members], lin.size - used[members])
        x[members] += step
        used[members] += taken
        for i, error in zip(members, broken):
            if error is not None:
                failed[i], going[i] = error, False
        res = r - lin.apply(x)
        previous[members] = beta[members]
        beta[members] = galerkin.norms(res[members])


def _back_substitute(tri, g):
    """y with tri y = g for each member, tri [k, m, m] upper triangular and
    g [k, m]; each row is summed left to right."""
    k, m = g.shape
    y = np.zeros((k, m))
    for i in reversed(range(m)):
        acc = np.zeros(k)
        for j in range(i + 1, m):
            acc = acc + tri[:, i, j] * y[:, j]
        y[:, i] = (g[:, i] - acc) / tri[:, i, i]
    return y


def _gmres(operator, res, beta, bound, limit):
    """One GMRES cycle for each member of the stack, from its residual res =
    r - M x, [k, N]: the correction P^-1 V y that minimizes |res - M P^-1 V y|
    over the member's Arnoldi basis V, grown one step at a time (classical
    Gram-Schmidt, twice) until its least-squares residual, tracked by Givens
    rotations, is at most its `bound` or it has taken its `limit` steps; a
    member that stops leaves the stack.  `operator(v, rows)` gives P^-1 v
    and M P^-1 v for the members `rows`.  Returns (corrections, steps,
    failed), failed[i] None or the numpy.linalg.LinAlgError of a breakdown."""
    k, size = res.shape
    out, steps, failed = np.zeros_like(res), np.zeros(k, dtype=int), [None] * k
    live = np.arange(k)                         # the members still stepping
    basis = (res / beta[:, None])[:, None, :]   # V, [m, j + 1, N]
    zs = np.empty((k, 0, size))                 # P^-1 V, [m, j, N]
    tri = np.empty((k, 0, 0))                   # the rotated Hessenberg matrix
    g = beta[:, None]                           # its right side, [m, j + 1]
    cos, sin = np.empty((k, 0)), np.empty((k, 0))
    for j in itertools.count():
        z, w = operator(basis[:, j], live)
        h = (basis @ w[:, :, None])[:, :, 0]
        w -= (h[:, None, :] @ basis)[:, 0]
        h2 = (basis @ w[:, :, None])[:, :, 0]
        w -= (h2[:, None, :] @ basis)[:, 0]
        h_next = np.sqrt(np.vecdot(w, w))
        col = h + h2
        for i in range(j):
            c, s = cos[:, i], sin[:, i]
            col[:, i], col[:, i + 1] = (c * col[:, i] + s * col[:, i + 1],
                                        c * col[:, i + 1] - s * col[:, i])
        d = np.array([math.hypot(a, b) for a, b in zip(col[:, j].tolist(), h_next.tolist())])
        broke = d == 0.0
        d_safe = np.where(broke, 1.0, d)
        c, s = col[:, j] / d_safe, h_next / d_safe
        col[:, j] = d
        cos, sin = np.column_stack([cos, c]), np.column_stack([sin, s])
        grown = np.zeros((len(live), j + 1, j + 1))
        grown[:, :j, :j] = tri
        grown[:, :, j] = col
        tri, zs = grown, np.concatenate([zs, z[:, None]], axis=1)
        g = np.column_stack([g[:, :j], g[:, j] * c, -s * g[:, j]])
        stop = broke | (np.abs(g[:, j + 1]) <= bound[live]) | (j + 1 >= limit[live])
        if stop.any():
            done = np.flatnonzero(stop & ~broke)
            y = _back_substitute(tri[done], g[done, :j + 1])
            out[live[done]] = (y[:, None, :] @ zs[done])[:, 0]
            steps[live[stop]] = j + 1
            for i in live[broke]:
                failed[i] = np.linalg.LinAlgError(
                    "singular system: the Arnoldi process broke down")
            if stop.all():
                return out, steps, failed
            keep = np.flatnonzero(~stop)
            live, w, h_next = live[keep], w[keep], h_next[keep]
            basis, zs, tri, g, cos, sin = (a[keep] for a in (basis, zs, tri, g, cos, sin))
        basis = np.concatenate([basis, (w / h_next[:, None])[:, None]], axis=1)


def _bordered_linear(ev, orbit, row, mu=None):
    """The `_Linear` stack of the square Jacobians of the bordered systems
    at the evaluated states `ev` (a `galerkin.Evaluation`): unknowns (c, t)
    and, with an orbit, mu [k] (zero when None); rows residual + mu R c,
    then with an orbit the phase row, then the member's `row` [k, n + 1]
    over (c, t)."""
    n = ev.model.n_modes
    k, q = len(row), 1 if orbit is None else 2
    cols, rows, corner = np.empty((k, n, q)), np.empty((k, q, n)), np.zeros((k, q, q))
    cols[:, :, 0] = galerkin.residual_t_derivative(ev).reshape(k, n)
    rows[:, -1] = row[:, :n]
    corner[:, -1, 0] = row[:, n]
    if orbit is None:
        return _Linear(ev, cols, rows, corner)
    cols[:, :, 1] = orbit.apply(ev.state.coeffs.reshape(k, n))
    rows[:, 0] = orbit.phase
    return _Linear(ev, cols, rows, corner, orbit, mu)


def _evaluate(model, t, coeffs):
    """The `galerkin.Evaluation` of the stack of states (t [k], coeffs
    [k, nb, nf]), and None when every member is a state positive on the
    grid.  Otherwise each member is evaluated as a stack of one: then the
    evaluation returned is the stack of the members that are (None when
    there are none), with the list of per member None or the
    InvalidArgumentError (t <= 0) or PositivityViolationError it raises."""
    try:
        return galerkin.Evaluation(model, State(t, coeffs)), None
    except (InvalidArgumentError, PositivityViolationError):
        pass
    evs, errors = [], []
    for i in range(len(t)):
        try:
            evs.append(galerkin.Evaluation(model, State(t[i:i + 1], coeffs[i:i + 1])))
            errors.append(None)
        except (InvalidArgumentError, PositivityViolationError) as exc:
            errors.append(exc)
    return (galerkin.stack(evs) if evs else None), errors


def _newton_failure(what, t, norm, cone):
    tail = "; damped steps left the positive cone" if cone else ""
    return NoConvergenceError(f"Newton {what} near t = {float(t)} (residual {norm:.3e}){tail}",
                              positivity_boundary=bool(cone))


def _in_member_order(pieces):
    """One stack of the members of `pieces`, (members, evaluation) pairs, in
    member order: one piece is its own stack, and no pieces None."""
    if len(pieces) < 2:
        return pieces[0][1] if pieces else None
    ids = np.concatenate([members for members, _ in pieces])
    return galerkin.stack([piece for _, piece in pieces])[np.argsort(ids)]


def _newton(model, state, system, linear, x, tol):
    """Damped Newton on a stack of k independent square systems F_i(x_i) = 0,
    the one Newton loop of the corrector and the complement solves, x [k, N].
    For the rows x of the members `members` (an index array),
    `state(x, members)` gives their states (t [m], coefficients
    [m, nb, nf]), `system(ev, x, members)` their (F [m, N], plain [m]) at
    their `galerkin.Evaluation` ev, plain the norms of their residuals
    alone, and `linear(ev, x, members)` the `_Linear` stack of their
    Jacobians.

    Each member on its own: each step is one `_solve_linear` to the forcing
    term min(_FORCING, |F|), with the preconditioner factored at the first
    step and kept to the end, and is halved until |F| falls by a quarter of
    the fraction taken (or below `tol`); a candidate with no state (t <= 0)
    or not positive on the grid is halved too.  The member stops when |F| and plain are below
    `tol`.  The members still iterating are solved, factored and evaluated
    as one stack; the members still halving share their damping factor.

    Returns (x, ev, plain, errors): per member its last iterate, its plain
    (0 when it failed) and None or its error, and ev, the evaluation of the
    converged members as one stack in member order (None when none
    converged): the iterate stack they converged in when they converged
    together, else a join of the pieces.  The errors:
    numpy.linalg.LinAlgError for a singular step,
    InvalidArgumentError or PositivityViolationError for a start with no
    state or off the positive cone, and NoConvergenceError, whose
    `positivity_boundary` tells whether a candidate was not positive, for
    halving below _MIN_DAMPING or MAX_NEWTON_ITER steps."""
    x = np.array(x, dtype=float)
    k = len(x)
    errors, cone = [None] * k, [False] * k
    plain_out = np.zeros(k)
    pieces = []     # (members, evaluation) of the members converged at one step
    # xa, F, norm, plain and ev hold the current iterates of `members`, in order
    members, pre = np.arange(k), None
    xa = x.copy()
    ev, failed = _evaluate(model, *state(xa, members))
    if failed is not None:
        errors = list(failed)
        members = np.flatnonzero([f is None for f in failed])
        xa = xa[members]
    if len(members):
        F, plain = system(ev, xa, members)
        norm = galerkin.norms(F)
    for iteration in range(MAX_NEWTON_ITER + 1):
        if not len(members):
            break
        if iteration == MAX_NEWTON_ITER:
            for j, i in enumerate(members):
                errors[i] = _newton_failure(f"did not converge in {MAX_NEWTON_ITER} steps",
                                            ev.t[j], norm[j], cone[i])
            break
        done = np.array([a < tol and b < tol for a, b in zip(norm.tolist(), plain.tolist())])
        if done.any():
            x[members[done]], plain_out[members[done]] = xa[done], plain[done]
            pieces.append((members[done], ev if done.all() else ev[np.flatnonzero(done)]))
            if done.all():
                break
            live = np.flatnonzero(~done)
            members, xa, F, norm, plain, ev = (
                members[live], xa[live], F[live], norm[live], plain[live], ev[live])
            pre = None if pre is None else pre.take(live)
        step, pre, failed = _solve_linear(linear(ev, xa, members), -F, pre,
                                          np.minimum(_FORCING, norm))
        if failed.count(None) < len(failed):
            for i, error in zip(members, failed):
                errors[i] = error
            live = np.flatnonzero([f is None for f in failed])
            if not len(live):
                break
            members, xa, F, norm, plain, ev, step = (
                members[live], xa[live], F[live], norm[live], plain[live], ev[live], step[live])
            pre = pre.take(live)

        # the line search: every member starts at alpha = 1, and the members
        # still halving (at the positions `search` in `members`; None: all of
        # them) share alpha.  Unless all are accepted at once, `accepted`
        # maps a position to its new iterate, F, plain, |F| and evaluation
        alpha, search, accepted, at_once = 1.0, None, {}, False
        while True:
            if search is None:
                ids, cand, positions = members, xa + alpha * step, list(range(len(members)))
            else:
                ids, cand, positions = members[search], xa[search] + alpha * step[search], search
            cev, failed = _evaluate(model, *state(cand, ids))
            evaluated = positions
            if failed is not None:
                for j, f in zip(positions, failed):
                    cone[members[j]] |= isinstance(f, PositivityViolationError)
                kept = [i for i, f in enumerate(failed) if f is None]
                evaluated = [positions[i] for i in kept]
                ids, cand = members[evaluated], cand[kept]
            if cev is not None:
                F_new, plain_new = system(cev, cand, ids)
                new_norm = galerkin.norms(F_new)
                bar, old = 1 - 0.25 * alpha, norm.tolist()
                ok = [a <= bar * old[j] or a < tol for a, j in zip(new_norm.tolist(), evaluated)]
                # all accepted: keep the stack whole (views and a join cost branch ~5 %)
                if search is None and failed is None and all(ok):
                    xa, F, plain, norm, ev, at_once = cand, F_new, plain_new, new_norm, cev, True
                    break
                for i, j in enumerate(evaluated):
                    if ok[i]:
                        accepted[j] = (cand[i], F_new[i], plain_new[i], new_norm[i],
                                       cev[i:i + 1])
            search = [j for j in positions if j not in accepted]
            alpha *= 0.5
            if alpha < _MIN_DAMPING:
                for j in search:
                    errors[members[j]] = _newton_failure("stalled", ev.t[j], norm[j],
                                                         cone[members[j]])
                break
            if not search:
                break
        if at_once:
            continue
        if not accepted:
            break
        live = sorted(accepted)
        xa, F, plain, norm = (np.array([accepted[j][n] for j in live]) for n in range(4))
        ev = galerkin.stack([accepted[j][4] for j in live])
        if len(live) < len(members):
            members, pre = members[live], pre.take(live)
    return x, _in_member_order(pieces), plain_out, errors


def _solve_bordered(model, coeffs, t, orbit, row, target):
    """`_newton` on a stack of k square bordered systems

        residual(c, t) + mu R c = 0,  <phase, c> = 0,  row . (c, t) = target

    (the mu term and the phase row only with an `_Orbit`; the phase row lies
    in the kernel span, orthogonal to the constant, so it reads
    <phase, c - c_triv> = 0) to TOL_NEWTON, from (coeffs [k, n], t [k]) and
    mu = 0, each member with its own `row` [k, n + 1] and `target` [k]; an
    error names the member's start t as given.  Returns (ev, mu, errors):
    `_newton`'s converged stack (its `.state` holds the solutions of the
    members with no error, in member order), and per member mu and None or
    its error.  A singular bordered matrix is a NoConvergenceError."""
    n = model.n_modes
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, n)
    k = len(coeffs)
    row, target = np.asarray(row, dtype=float), np.asarray(target, dtype=float)

    def state(x, members):
        return x[:, n], x[:, :n].reshape((len(x),) + model.shape)

    def system(ev, x, members):
        c, F = x[:, :n], np.empty_like(x)
        res = ev.residual.reshape(len(x), n)
        if orbit is None:
            F[:, :n] = res
        else:
            np.add(res, x[:, n + 1, None] * orbit.apply(c), out=F[:, :n])
            np.vecdot(orbit.phase[members], c, out=F[:, n])
        np.subtract(np.vecdot(row[members], x[:, :n + 1]), target[members], out=F[:, -1])
        return F, ev.residual_norm

    def linear(ev, x, members):
        if orbit is None:
            return _bordered_linear(ev, None, row[members])
        return _bordered_linear(ev, orbit.take(members), row[members], x[:, n + 1])

    x = np.zeros((k, n + (1 if orbit is None else 2)))
    x[:, :n] = coeffs
    x[:, n] = t
    x, ev, _, errors = _newton(model, state, system, linear, x, TOL_NEWTON)
    for i, exc in enumerate(errors):
        if isinstance(exc, np.linalg.LinAlgError):
            errors[i] = NoConvergenceError(f"singular bordered matrix near t = {t[i]}: {exc}")
            errors[i].__cause__ = exc
    mu = np.zeros(k) if orbit is None else x[:, n + 1]
    return ev, mu, errors


def _switch_solve(model, points, c_triv, n_hat, amplitude, start):
    """The branch-switching corrector of `switch_branch` and
    `verify_fiber_constancy` for a stack of k pins: member i pins
    <c - c_triv_i, n_hat_i> = amplitude, fixes the phase along n_hat_i, and
    solves from start_i at t = points[i].t, the points all of one
    `_orbit_kind`; n_hat and start are [k, n], c_triv [k, n] or one [n] for
    every member.  Returns the converged stack and the errors of
    `_solve_bordered`."""
    orbit = _orbit(model, points, n_hat)
    rows = np.concatenate([n_hat, np.zeros((len(n_hat), 1))], axis=1)
    ev, _, errors = _solve_bordered(model, start, [bp.t for bp in points], orbit, rows,
                                    np.vecdot(n_hat, c_triv) + amplitude)
    return ev, errors


# ---------------------------------------------------------------------------
# branch switching

def switch_branch(model: GalerkinModel, points, amplitude: float) -> list:
    """Land on a nontrivial branch through each branch point of `points`,
    all of one `_orbit_kind`, as one stack: for each, solve the equation in
    (c, t) with the amplitude along its first kernel mode n pinned to
    `amplitude`, from the one start u = 1 + amplitude * n at t = bp.t.
    Returns per point the converged `galerkin.Evaluation`, a stack of one
    whose `.state` is the solution, or the error that left it without one:
    a corrector failure, or a solution that collapses back to u = 1, is a
    NoNontrivialSolutionError naming the cause.  A point with no kernel
    modes, or a kernel other than one mode or one circle cos/sin pair,
    raises PreconditionError."""
    points = list(points)
    for bp in points:
        _orbit_kind(model, bp)
    amplitude = float(amplitude)
    c_triv = galerkin.constant_state(model, [bp.t for bp in points]).coeffs
    c_triv = c_triv.reshape(len(points), -1)
    n_hat = np.array([kernel_vectors(model, bp)[0].ravel() for bp in points])
    ev, errors = _switch_solve(model, points, c_triv, n_hat, amplitude,
                               c_triv + amplitude * n_hat)
    out = []
    for i, (bp, error) in enumerate(zip(points, errors)):
        if error is None:
            r = errors[:i].count(None)      # the point's row in ev
            if ev.u_distance[r] > _NONTRIVIAL_NORM:
                out.append(ev[r:r + 1])
                continue
            cause = "the solution collapsed to u = 1"
        elif isinstance(error, (NoConvergenceError, PositivityViolationError)):
            cause = str(error)
        else:
            out.append(error)
            continue
        out.append(NoNontrivialSolutionError(
            f"no nontrivial branch found at t = {bp.t} (amplitude {amplitude}): {cause}"
        ))
    return out


# ---------------------------------------------------------------------------
# pseudo-arclength continuation

@dataclass(frozen=True)
class Branch:
    """A stack of followed branches, one per member.  Member i's samples
    are `member_samples[i]`, one `galerkin.Evaluation`: a stack whose first
    member is its start, and whose per-member arrays are the measurements
    (t, u_distance, energy, fiber_fraction, residual_norm).  Per member
    too: its origin, its stop reason, its smallest `fiber_margin`
    (fiber-constant branches, else None), and None or the CscbifError that
    left it without a branch (it then has no stop reason).  `samples`
    joins every member's samples in member order; `branch[i]` is member i,
    a stack of one, whose `stop_reason` and `fiber_margin` are its own."""

    member_samples: tuple
    origins: tuple
    stop_reasons: tuple
    errors: tuple
    fiber_margins: tuple

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i) -> Branch:
        return Branch(*((getattr(self, f.name)[i],) for f in fields(self)))

    @cached_property
    def samples(self) -> galerkin.Evaluation:
        return galerkin.stack(self.member_samples)

    @property
    def stop_reason(self) -> str:
        (reason,) = self.stop_reasons
        return reason

    @property
    def fiber_margin(self) -> float | None:
        (margin,) = self.fiber_margins
        return margin

    @property
    def ts(self):
        return self.samples.t

    @property
    def distances(self):
        return self.samples.u_distance


def _tangent(ev, orbit, last_row):
    """Unit tangents (dc, dt), [k, n + 1], of a stack of branches at their
    evaluated solutions `ev` (a `galerkin.Evaluation`, as the corrector
    returns them): one full-accuracy solve of each member's bordered matrix
    with its `last_row` over (c, t) as the last row and right side e_last,
    so the tangent has a positive component along `last_row` (the previous
    tangent, or the unit offset from u = 1 at the start), preconditioned
    at `ev`.  Returns the tangents and per member None or the
    NoConvergenceError of a singular system."""
    lin = _bordered_linear(ev, orbit, last_row)
    rhs = np.zeros((len(ev), lin.size))
    rhs[:, -1] = 1.0
    x, _, failed = _solve_linear(lin, rhs)
    errors = [None] * len(ev)
    for i, error in enumerate(failed):
        if error is not None:
            errors[i] = NoConvergenceError(f"singular tangent system at t = {ev.t[i]}: {error}")
            errors[i].__cause__ = error
    v = x[:, :ev.model.n_modes + 1]
    with np.errstate(divide="ignore", invalid="ignore"):    # a failed member's v may be 0
        return v / galerkin.norms(v)[:, None], errors


def continue_branch(model: GalerkinModel, start: State | galerkin.Evaluation,
                    direction: int, steps: int, ds: float, origins=None) -> Branch:
    """Pseudo-arclength continuation of a stack of branches in lockstep,
    member i from the converged solution i of `start`, a state (a stack) or
    its evaluation (which the residual check and the first tangents then
    read), through the branch point `origins[i]` (None: no origins), all of
    one `_orbit_kind`.

    `direction` +1 follows the branches with growing distance from u = 1,
    -1 with shrinking distance (toward the branch point).  Each step is one
    stacked predictor, one `_newton` over the members still running and
    one stacked `_tangent`.  A member stops early on positivity loss,
    corrector failure, or when its distance turns around (the turning
    sample is discarded so the kept prefix stays monotone); two distances
    both below _NONTRIVIAL_NORM are the rounding of u = 1, so their order
    is no turnaround.  A member whose first corrector fails gets an
    EmptyBranchError, and one whose tangent system is singular a
    NoConvergenceError.  A member that stops leaves the stack, and every
    member gets the bits it gets alone.  The rotation orbit of a cos/sin
    kernel pair of a member's origin is fixed by the phase of its start.
    A member keeps its samples as (c, t) rows, its start first, and
    evaluates them once, as one stack, when the branches return, so no
    corrector's stack outlives its step.
    """
    if not ds > 0:
        raise InvalidArgumentError(f"arclength step must be positive, got {ds}")
    if steps < 1:
        raise InvalidArgumentError(f"need steps >= 1, got {steps}")
    if direction not in (1, -1):
        raise InvalidArgumentError(f"direction must be +1 or -1, got {direction!r}")
    start_ev = galerkin.Evaluation(model, start) if isinstance(start, State) else start
    start = start_ev.state
    k, n = len(start_ev), model.n_modes
    origins = (None,) * k if origins is None else tuple(origins)
    if len(origins) != k:
        raise InvalidArgumentError(f"need one origin per start, got {len(origins)} for {k}")
    if (start_ev.residual_norm > 10 * TOL_NEWTON).any():
        raise PreconditionError("start state does not satisfy the residual tolerance")

    x = np.concatenate([start.coeffs.reshape(k, n), start.t[:, None]], axis=1)
    offset = x[:, :n] - galerkin.constant_state(model, start.t).coeffs.reshape(k, n)
    orbit = _orbit(model, origins, offset)

    # first tangents: positive along the offset from u = 1 (along t when the
    # start is u = 1 itself), then flipped to the requested direction
    offset_norm = galerkin.norms(offset)
    moved = offset_norm > 0
    first_row = np.concatenate([offset, np.where(moved, 0.0, 1.0)[:, None]], axis=1)
    first_row[moved, :n] /= offset_norm[moved, None]
    v, errors = _tangent(start_ev, orbit, first_row)
    v *= direction

    samples = [[x[i].copy()] for i in range(k)]      # each member's (c, t) rows
    reasons = ["steps-exhausted"] * k
    last = start_ev.u_distance.tolist()
    running = [i for i in range(k) if errors[i] is None]
    for step_no in range(steps):
        if not running:
            break
        ids = np.array(running)
        x_pred = x[ids] + ds * v[ids]
        solved_ev, _, failed = _solve_bordered(
            model, x_pred[:, :-1], x_pred[:, -1], None if orbit is None else orbit.take(ids),
            v[ids], np.vecdot(v[ids], x_pred))
        solved = []     # the members solved, in the order of solved_ev
        for i, exc in zip(running, failed):
            if exc is None:
                solved.append(i)
            elif not isinstance(exc, (NoConvergenceError, PositivityViolationError)):
                errors[i] = exc
            elif step_no == 0:
                errors[i] = EmptyBranchError(f"first continuation corrector failed: {exc}")
                errors[i].__cause__ = exc
            else:
                hit_boundary = (isinstance(exc, PositivityViolationError)
                                or exc.positivity_boundary)
                reasons[i] = "positivity-stop" if hit_boundary else "no-convergence"
        running = []
        if not solved:
            break
        dist = solved_ev.u_distance.tolist()
        going = []
        for p, i in enumerate(solved):
            if (dist[p] - last[i]) * direction < 0 and max(dist[p], last[i]) >= _NONTRIVIAL_NORM:
                reasons[i] = "turnaround"
            else:
                going.append(p)
        if not going:
            break
        ev = solved_ev if len(going) == len(solved) else solved_ev[np.array(going)]
        ids = np.array([solved[p] for p in going])
        tangents, failed = _tangent(ev, None if orbit is None else orbit.take(ids), v[ids])
        for r, (p, i) in enumerate(zip(going, ids.tolist())):
            if failed[r] is not None:
                errors[i] = failed[r]
                continue
            x[i, :n] = ev.state.coeffs[r].ravel()
            x[i, n] = ev.t[r]
            v[i] = tangents[r]
            last[i] = dist[p]
            samples[i].append(x[i].copy())
            running.append(i)
    reasons = tuple(None if e is not None else r for r, e in zip(reasons, errors))
    # the last step's stacks are freed before the samples are evaluated, which
    # then reuse their memory (branch-cs16 peak RSS about 0.1 MB lower)
    solved_ev = ev = None
    member_samples = tuple(
        galerkin.Evaluation(model, State(rows[:, n], rows[:, :n].reshape((-1,) + model.shape)))
        for rows in map(np.array, samples))
    return Branch(member_samples, origins, reasons, tuple(errors), (None,) * k)


# ---------------------------------------------------------------------------
# horizontal branches on the fiber-constant subspace

def _padded(model, state):
    """A state of `model.fiber_constant` as one of `model`: the [k, nb, 1]
    coefficients zero-padded to [k, nb, nf]."""
    coeffs = np.zeros(state.coeffs.shape[:-1] + model.shape[-1:])
    coeffs[:, :, :1] = state.coeffs
    return State(state.t, coeffs)


def fiber_margin(model: GalerkinModel, ev: galerkin.Evaluation) -> np.ndarray:
    """lambda_min(J_0) + a_m lam_1 / t at fiber-constant states of `model`,
    given as `ev`, their evaluation in `model.fiber_constant`: J_0 is the
    nb x nb Jacobian there (its `degree_zero_block`), and one `eigvalsh`
    call gives the margins, one per member.
    Every fiber block J_jj = J_0 + (a_m lam_j / t) I of `model` with j >= 1
    has its smallest eigenvalue at or above it, so a positive margin makes
    them all positive definite: no fiber-dependent mode is degenerate
    there."""
    lam1 = model.fiber.eigenvalues[1]
    return np.linalg.eigvalsh(ev.degree_zero_block)[:, 0] + model.a_m * lam1 / ev.t


def _follow_group(model, sub, points, amplitude, direction, steps, ds):
    """One `switch_branch` stack through `points` in the solve model `sub`,
    then one `continue_branch` in lockstep from its switch solutions: per
    point its error or its `Branch`, a stack of one.  A branch on
    `model.fiber_constant` is kept as the fields of its padded `Branch` in
    `model`, with its samples' states in place of their evaluation, so that
    the group's evaluations are freed before any branch is padded."""
    out = switch_branch(sub, points, amplitude)
    switched = [j for j, start in enumerate(out) if not isinstance(start, CscbifError)]
    if not switched:
        return out
    branch = continue_branch(sub, galerkin.stack([out[j] for j in switched]), direction,
                             steps, ds, origins=[points[j] for j in switched])
    for r, j in enumerate(switched):
        one = branch[r]
        if branch.errors[r] is not None:
            out[j] = branch.errors[r]
        elif sub is model:
            out[j] = one
        else:
            # the margin is measured on a view, so the blocks it computes
            # are freed with it
            samples = one.samples[:]
            out[j] = (samples.state, one.origins, one.stop_reasons, one.errors,
                      (float(fiber_margin(model, samples).min()),))
    return out


def follow_branch(model: GalerkinModel, points, amplitude: float, direction: int,
                  steps: int, ds: float):
    """The branch through each branch point of `points`: yields, point by
    point, its `Branch`, a stack of one whose first sample is the switch
    solution, or the CscbifError that left it without one.  The points are
    followed in groups, the points of one solve model and one
    `_orbit_kind`, each by `_follow_group` when its first point is reached.
    A horizontal branch is followed on `model.fiber_constant`; when it is
    reached, its samples are zero-padded to [nb, nf] and evaluated in
    `model` as one stack, which gives their energies, distances, fiber
    fractions (exactly 0) and residuals, so one padded branch is held at a
    time.  It carries the smallest `fiber_margin` of its samples.  Any
    other kernel is followed in `model` itself."""
    points = list(points)
    keys, groups = [], {}
    for i, bp in enumerate(points):
        try:
            key = (bp.horizontal, _orbit_kind(model, bp))
        except PreconditionError as exc:
            key = exc
        else:
            groups.setdefault(key, []).append(i)
        keys.append(key)
    followed = {}
    for i, key in enumerate(keys):
        if isinstance(key, CscbifError):
            yield key
            continue
        horizontal, members = key[0], groups[key]
        if i not in followed:
            sub = model.fiber_constant if horizontal else model
            followed.update(zip(members, _follow_group(
                model, sub, [points[j] for j in members], amplitude, direction, steps, ds)))
        branch = followed.pop(i)
        if isinstance(branch, tuple):
            state, *rest = branch
            branch = Branch((galerkin.Evaluation(model, _padded(model, state)),), *rest)
        yield branch


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
    """`_newton` on a stack of k complement-projected equations: for member
    i find v_i supported on `indices` (flat) with P residual(base_i + v_i)
    = 0, from v_i = start_i (0 by default), to TOL_COMPLEMENT; base_coeffs
    is [k, n] (or [k, nb, nf]) and start [k, len(indices)].  The unit
    vectors E of the other modes border each into a square system in
    (v, z), residual(base + v) + E z = 0 and E^T v = 0, with Jacobian
    [[J, E], [E^T, 0]]: the multipliers z take up the kernel rows, and v is
    read on `indices` only, so E^T v = 0 holds exactly.  Returns (v, the
    final projected residuals, ev, errors): ev `_newton`'s converged stack,
    the evaluation of base + v for the members with no error in member
    order, and per member None or the ReductionFailedError naming the
    cause of a singular step, a start that is not positive on the grid or
    a Newton failure."""
    n = model.n_modes
    idx = np.asarray(indices, dtype=int)
    pinned = np.delete(np.arange(n), idx)
    q = len(pinned)
    unit = np.zeros((n, q))
    unit[pinned, np.arange(q)] = 1.0
    corner = np.zeros((q, q))
    base = np.asarray(base_coeffs, dtype=float).reshape(-1, n)
    k = len(base)

    def state(x, members):
        c = base[members]
        c[:, idx] += x[:, idx]
        return np.full(len(x), float(t)), c.reshape((len(x),) + model.shape)

    def system(ev, x, members):
        res = ev.residual.reshape(len(x), n)
        full = np.concatenate([res, np.zeros((len(x), q))], axis=1)
        full[:, pinned] += x[:, n:]
        return full, galerkin.norms(res[:, idx])

    x = np.zeros((k, n + q))
    if start is not None:
        x[:, idx] = start
    x, ev, norm, errors = _newton(
        model, state, system, lambda ev, x, members: _Linear(ev, unit, unit.T, corner),
        x, TOL_COMPLEMENT)
    for i, exc in enumerate(errors):
        if isinstance(exc, np.linalg.LinAlgError):
            errors[i] = ReductionFailedError(
                f"complement Jacobian is singular ({exc}); the kernel split is invalid")
        elif isinstance(exc, (NoConvergenceError, PositivityViolationError)):
            errors[i] = ReductionFailedError(f"complement solve failed: {exc}")
        else:
            continue
        errors[i].__cause__ = exc
    return x[:, idx], norm, ev, errors


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
    agreement (every fiber block invertible).  All samples' full solves run
    as one stack and their restricted solves as another; a failing sample
    raises the first error in sample order (full before restricted), a
    ReductionFailedError."""
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
    bases, starts = [], []
    for coeffs in coords:
        bases.append(c_triv + sample_radius * sum(c * v for c, v in zip(coeffs, vecs)))
        mixed = rng.standard_normal(len(full_comp))
        starts.append(sample_radius * mixed / np.linalg.norm(mixed))
    bases = np.array(bases)
    vf, rf, _, full_errors = _complement_solve(model, bp.t, bases, full_comp, np.array(starts))
    vr, rr, restricted, restricted_errors = _complement_solve(
        model.fiber_constant, bp.t, bases.reshape((-1,) + model.shape)[:, :, :1], fc_comp)
    for pair in zip(full_errors, restricted_errors):
        for error in pair:
            if error is not None:
                raise error
    samples = []
    for i in range(len(coords)):
        alpha_full = np.zeros(model.n_modes)
        alpha_full[full_comp] = vf[i]
        alpha_restricted = np.zeros(model.shape)
        alpha_restricted[fc_comp, 0] = vr[i]
        samples.append(ReductionSample(
            alpha_full=alpha_full.reshape(model.shape),
            alpha_restricted=alpha_restricted,
            projected_residual_full=float(rf[i]),
            projected_residual_restricted=float(rr[i]),
        ))
    worst = max(0.0, *(sample.difference for sample in samples))
    margin = float(fiber_margin(model, restricted).min())
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
    converged to a nontrivial solution.  The starts are drawn trial by
    trial and all trials are solved as one stack.  A zero amplitude pins
    every trial to u = 1 and is refused with InvalidArgumentError."""
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

    n_hats, starts = [], []
    for _ in range(trials):
        kcoef = rng.standard_normal(bp.kernel_dim)
        n_hat = (kcoef @ vecs)
        n_hat /= np.linalg.norm(n_hat)
        fiber_part = rng.standard_normal((nb, nf))
        fiber_part[:, 0] = 0.0
        fiber_part = fiber_part.ravel()
        fiber_part /= np.linalg.norm(fiber_part)
        n_hats.append(n_hat)
        starts.append(c_triv + amplitude * (n_hat + fiber_part))
    solved, errors = _switch_solve(model, [bp] * trials, c_triv, np.array(n_hats), amplitude,
                                   np.array(starts))

    # the converged solutions, measured as one stack
    converged = [trial for trial, error in enumerate(errors) if error is None]
    measured = {}
    if converged:
        measured = dict(zip(converged, zip(solved.t.tolist(), solved.u_distance.tolist(),
                                           solved.fiber_fraction.tolist())))
    rows_out = []
    max_fraction = 0.0
    for trial, error in enumerate(errors):
        if error is not None:
            if not isinstance(error, (NoConvergenceError, PositivityViolationError)):
                raise error
            rows_out.append(TrialRow(trial, False, False, None, None, None, False))
            continue
        t, dist, fraction = measured[trial]
        if dist <= _NONTRIVIAL_NORM:
            rows_out.append(TrialRow(trial, True, False, t, dist, None, False))
            continue
        max_fraction = max(max_fraction, fraction)
        rows_out.append(TrialRow(
            trial, True, True, t, dist, fraction,
            fraction >= FIBER_FRACTION_BOUND,
        ))
    return FiberConstancyReport(bp, tuple(rows_out), seed, max_fraction)
