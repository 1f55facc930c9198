"""Spectral Galerkin discretization of the constant-scalar-curvature
equation on two-factor products.

The equation for the conformal factor u > 0 at fiber scale t is

    -a_m Lap_{g(t)} u + s(t) (u - u^{p_m - 1}) = 0,
    a_m = 4 (m - 1) / (m - 2),   p_m = 2 m / (m - 2),

the Euler-Lagrange equation of

    E(u) = int  (a_m / 2) |du|^2 + s(t) (u^2 / 2 - u^{p_m} / p_m)  dmu_{g(t)}.

The basis is a tensor product of one-dimensional spectral families, one per
factor: real Fourier modes on a circle, normalized Legendre polynomials in
the cosine of the polar angle (the axisymmetric harmonics) on a round
2-sphere.  The basis is orthonormal in L^2 of the unscaled product metric
and diagonalizes the Laplacian, mode (i, j) carrying the exact eigenvalue
pair (b_i, lam_j) and scaling to b_i + lam_j / t.  The nonlinear power is
evaluated by collocation on a tensor quadrature grid oversampled to
integrate triple products of basis functions exactly.

Scaling the fiber metric by t multiplies the volume measure by t^{k/2}
(k the fiber dimension).  That factor is applied to the energy only; the
residual is the coefficient vector of the equation in the unweighted basis
inner product, so the gradient of the energy equals t^{k/2} times the
residual, and exactly the residual at t = 1.

Every state is a stack: a `State` holds k states (t [k], coefficients
[k, nb, nf]), a single state being a stack of one, and its `Evaluation`
evaluates them together, each member getting the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidArgumentError,
    PositivityViolationError,
    UnsupportedGeometryError,
)
from .spectra import ManifoldDescriptor, SphereSpectrum
from .variation import SubmersionFamily

_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class FactorBasis:
    """One factor's spectral family sampled on its quadrature rule."""

    label: str            # "fourier" or "legendre"
    dim: int
    radius: Fraction
    count: int            # number of basis functions
    frequencies: tuple    # per-function frequency (Fourier) or degree (Legendre)
    eigenvalues_exact: tuple
    values: np.ndarray    # [count, nquad] basis functions at the nodes
    weights: np.ndarray   # [nquad] quadrature weights for the factor measure
    volume: float

    @cached_property
    def eigenvalues(self):
        return np.array([float(v) for v in self.eigenvalues_exact])


def _fourier_basis(radius: Fraction, n_freq: int) -> FactorBasis:
    """Real Fourier family on a circle of the given radius: the constant
    plus cos/sin pairs for frequencies 1 .. n_freq - 1, so 2 n_freq - 1
    functions.  Equispaced nodes, 4 n_freq of them, integrate products of
    three basis functions exactly (top frequency 3 (n_freq - 1))."""
    r = float(radius)
    length = 2 * np.pi * r
    nquad = 4 * n_freq
    theta = 2 * np.pi * np.arange(nquad) / nquad
    weights = np.full(nquad, length / nquad)

    rows, freqs, eigs = [], [], []
    rows.append(np.full(nquad, 1 / np.sqrt(length)))
    freqs.append(0)
    eigs.append(Fraction(0))
    for j in range(1, n_freq):
        scale = np.sqrt(2 / length)
        rows.append(scale * np.cos(j * theta))
        rows.append(scale * np.sin(j * theta))
        freqs += [j, j]
        eigs += [Fraction(j * j) / radius**2] * 2
    return FactorBasis(
        "fourier", 1, radius, len(rows), tuple(freqs), tuple(eigs),
        np.vstack(rows), weights, length,
    )


def _legendre_basis(radius: Fraction, n_deg: int) -> FactorBasis:
    """Axisymmetric family on the round 2-sphere: normalized Legendre
    polynomials P_l(cos phi) for l = 0 .. n_deg - 1.  Gauss-Legendre nodes
    in cos phi, 2 n_deg of them, are exact through polynomial degree
    4 n_deg - 1 >= 3 (n_deg - 1)."""
    r = float(radius)
    area = 4 * np.pi * r * r
    nquad = 2 * n_deg
    nodes, gl_weights = np.polynomial.legendre.leggauss(nquad)
    weights = 2 * np.pi * r * r * gl_weights

    vander = np.polynomial.legendre.legvander(nodes, n_deg - 1)  # [nquad, n_deg]
    rows, freqs, eigs = [], [], []
    for ell in range(n_deg):
        norm = np.sqrt((2 * ell + 1) / area)
        rows.append(norm * vander[:, ell])
        freqs.append(ell)
        eigs.append(Fraction(ell * (ell + 1)) / radius**2)
    return FactorBasis(
        "legendre", 2, radius, n_deg, tuple(freqs), tuple(eigs),
        np.vstack(rows), weights, area,
    )


def _factor_basis(descriptor: ManifoldDescriptor, n_modes: int) -> FactorBasis:
    spec = descriptor.spectrum
    if not isinstance(spec, SphereSpectrum):
        raise UnsupportedGeometryError(
            f"factor {descriptor.name!r} has no one-dimensional spectral basis "
            "here; only round circles and 2-spheres are discretized"
        )
    if spec.dim != descriptor.dim:
        raise UnsupportedGeometryError(
            f"factor {descriptor.name!r}: descriptor dimension {descriptor.dim} "
            f"does not match its sphere spectrum dimension {spec.dim}"
        )
    if not isinstance(n_modes, int) or n_modes < 2:
        raise ConfigurationError(f"mode count must be an integer >= 2, got {n_modes!r}")
    if descriptor.dim == 1:
        return _fourier_basis(spec.radius, n_modes)
    if descriptor.dim == 2:
        return _legendre_basis(spec.radius, n_modes)
    raise UnsupportedGeometryError(
        f"factor {descriptor.name!r} has dimension {descriptor.dim}; spheres of "
        "dimension >= 3 are classification-only"
    )


@dataclass(frozen=True)
class GalerkinModel:
    """Discretized product family.  Coefficient arrays are indexed
    [base function, fiber function].  The numerical layer reads the family
    through the model's float view: a_m, p_m and the curvature data
    (s_h, s_g, |A|^2) are converted once, and s(t), ds/dt are evaluated
    from them."""

    family: SubmersionFamily
    base: FactorBasis
    fiber: FactorBasis

    @property
    def m(self) -> int:
        return self.family.m

    @cached_property
    def a_m(self) -> float:
        return 4 * (self.m - 1) / (self.m - 2)

    @cached_property
    def p_m(self) -> float:
        return 2 * self.m / (self.m - 2)

    @cached_property
    def _curvature(self):
        """(s_h, s_g, |A|^2) as floats."""
        fam = self.family
        return (float(fam.base.scalar_curvature), float(fam.fiber.scalar_curvature),
                float(fam.a_norm_sq))

    def scalar_curvature(self, t: float) -> float:
        """s(t) = s_h + s_g / t - t |A|^2 in floats (elementwise for an
        array t)."""
        s_h, s_g, a_sq = self._curvature
        return s_h + s_g / t - t * a_sq

    def scalar_curvature_dt(self, t: float) -> float:
        """ds/dt = -s_g / t^2 - |A|^2 in floats."""
        _, s_g, a_sq = self._curvature
        return -s_g / t**2 - a_sq

    @property
    def shape(self):
        return (self.base.count, self.fiber.count)

    @property
    def n_modes(self) -> int:
        return self.base.count * self.fiber.count

    @property
    def volume_at_one(self) -> float:
        return self.base.volume * self.fiber.volume

    @cached_property
    def fiber_constant(self) -> GalerkinModel:
        """The same family with the fiber factor cut to its constant mode,
        [nb, 1] coefficient arrays: the fiber-constant functions, the
        fixed-point subspace of the fiber isometries, which `residual`
        leaves invariant.  Built on first use, not at build time."""
        factor = _fourier_basis if self.fiber.label == "fourier" else _legendre_basis
        return GalerkinModel(self.family, self.base, factor(self.fiber.radius, 1))

    @cached_property
    def weights2(self) -> np.ndarray:
        return np.outer(self.base.weights, self.fiber.weights)

    @cached_property
    def projectors(self):
        """The factors' weighted values ([nb, Mb], [nf, Mf]) for `project`."""
        return tuple(f.values * f.weights for f in (self.base, self.fiber))

    def eigentable(self, b_max=np.inf, lam_max=np.inf):
        """Exact (b_i, lam_j) per mode pair with b_i <= b_max and
        lam_j <= lam_max, row-major over (i, j)."""
        base = [(i, b) for i, b in enumerate(self.base.eigenvalues_exact) if b <= b_max]
        fiber = [(j, lam) for j, lam in enumerate(self.fiber.eigenvalues_exact) if lam <= lam_max]
        return [((i, j), (b, lam)) for i, b in base for j, lam in fiber]


def _per_member(f, t):
    """f(t) in floats, member by member for t [k], as [k, 1, 1]: it
    broadcasts against [k, nb, nf] arrays."""
    return np.array([f(v) for v in t.tolist()])[:, None, None]


@dataclass(frozen=True)
class State:
    """A stack of k candidate conformal factors: their fiber scales t, a
    float array [k], and the coefficient arrays of u in the tensor basis,
    [k, nb, nf].  A single state is a stack of one."""

    t: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or np.ndim(self.coeffs) != 3 or len(self.coeffs) != len(t):
            raise InvalidArgumentError(
                f"a state is a stack of t [k] and coefficients [k, nb, nf], got shapes "
                f"{t.shape} and {np.shape(self.coeffs)}")
        bad = [v for v in t.tolist() if not v > 0]      # NaN included
        if bad:
            raise InvalidArgumentError(f"state needs t > 0, got {bad[0]!r}")


def _members(state: State, rows) -> State:
    """The members `rows` (an index array or a slice) of a state, which
    were checked when it was made."""
    out = object.__new__(State)
    object.__setattr__(out, "t", state.t[rows])
    object.__setattr__(out, "coeffs", state.coeffs[rows])
    if out.t.ndim != 1:
        raise InvalidArgumentError("members are taken as rows, an index array or a slice")
    return out


def build_model(family: SubmersionFamily, base_modes: int, fiber_modes: int) -> GalerkinModel:
    """Assemble the tensor basis for a product family and verify its
    orthonormality on the quadrature grid to 1e-12."""
    if not family.is_product:
        raise UnsupportedGeometryError(
            "only product families (|A|^2 = 0, all-pairs joint spectrum) are "
            "discretized"
        )
    base = _factor_basis(family.base, base_modes)
    fiber = _factor_basis(family.fiber, fiber_modes)
    for factor in (base, fiber):
        gram = (factor.values * factor.weights) @ factor.values.T
        defect = np.abs(gram - np.eye(factor.count)).max()
        if defect > _GRAM_TOL:
            raise ConfigurationError(
                f"{factor.label} factor basis fails orthonormality by {defect:.3e}"
            )
    return GalerkinModel(family, base, fiber)


def constant_state(model: GalerkinModel, t, value: float = 1.0) -> State:
    """The constant function `value` at each scale of t, an array [k] or
    one number (a stack of one)."""
    t = np.array(t, dtype=float).reshape(-1)
    coeffs = np.zeros((len(t),) + model.shape)
    coeffs[:, 0, 0] = value * np.sqrt(model.volume_at_one)
    return State(t, coeffs)


def grid_values(model: GalerkinModel, state: State) -> np.ndarray:
    """u on the tensor quadrature grid, [k, Mb, Mf].  The coefficients are
    read C-contiguous, so a strided view and its copy give the same bits."""
    return model.base.values.T @ np.ascontiguousarray(state.coeffs) @ model.fiber.values


def project(model: GalerkinModel, grid: np.ndarray) -> np.ndarray:
    """L^2(g(1)) projection of grid functions [k, Mb, Mf] (or one,
    [Mb, Mf]) onto the basis, [k, nb, nf] ([nb, nf])."""
    pb, pf = model.projectors
    return pb @ grid @ pf.T


def _rows(value, rows):
    """value[rows] for an array, item by item for a tuple of them."""
    if isinstance(value, tuple):
        return tuple(part[rows] for part in value)
    return value[rows]


def _concatenated(values):
    """The values of stacks joined along the member axis, item by item for
    tuples of arrays."""
    if isinstance(values[0], tuple):
        return tuple(_concatenated(items) for items in zip(*values))
    return np.concatenate(values)


class Evaluation:
    """A stack of states of a model, evaluated: the numerical layer's one
    handle on states, which the kernels below take.  Its values on the
    quadrature grid are computed and checked positive at construction (else
    PositivityViolationError); every other fact is computed on first use
    and kept: b_i + lam_j / t, s(t), the projected power u^(p-1), the
    Jacobian's parts and degree-0 block, the residual, the energy and the
    measurements of a branch.

    Arrays carry a leading member axis, and scalars (t, s(t), the norms
    and measurements) are one per member.  `ev[rows]` is the members
    `rows` (an index array or a slice) as a stack of their own, and
    `stack` joins evaluations.  Both own their data: they copy the facts
    their sources have computed when they are made (a slice keeps numpy
    views), compute the rest themselves, and hold no other evaluation."""

    def __init__(self, model: GalerkinModel, state: State):
        self.model, self.state = model, state
        self.grid = grid_values(model, state)     # u on the grid, [k, Mb, Mf]
        low = self.grid.min()
        if not low > 0:
            raise PositivityViolationError(
                f"state is not strictly positive on the grid (min {low:.6e})"
            )

    def _made(self, state, parts) -> Evaluation:
        """An evaluation of `state` with the computed `parts` (a dict of
        every name's value, the grid included) and no grid check."""
        out = type(self).__new__(type(self))
        out.__dict__.update(parts, model=self.model, state=state)
        return out

    def _parts(self) -> dict:
        """The facts computed so far, by name, the grid included."""
        return {name: value for name, value in self.__dict__.items()
                if name not in ("model", "state")}

    def __len__(self) -> int:
        return len(self.state.t)

    def __getitem__(self, rows) -> Evaluation:
        state = _members(self.state, rows)
        return self._made(state, {name: _rows(value, rows)
                                  for name, value in self._parts().items()})

    @property
    def t(self) -> np.ndarray:
        return self.state.t

    @cached_property
    def mode_eigenvalues(self) -> np.ndarray:
        """b_i + lam_j / t on the grid of mode pairs, [k, nb, nf]."""
        base, fiber = self.model.base, self.model.fiber
        return base.eigenvalues[:, None] + fiber.eigenvalues / self.state.t[:, None, None]

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        """s(t), [k, 1, 1]."""
        return _per_member(self.model.scalar_curvature, self.state.t)

    @cached_property
    def projected_power(self) -> np.ndarray:
        return project(self.model, self.grid ** (self.model.p_m - 1.0))

    @cached_property
    def jacobian_parts(self) -> tuple:
        """The two parts of the Jacobian of `residual`: the weight
        -s(t) (p - 1) w u^(p-2) of its projected power term on the grid,
        quadrature weight included, [k, Mb, Mf], and its diagonal linear
        part a_m (b_i + lam_j / t) + s(t), [k, nb, nf]."""
        model, p, s_t = self.model, self.model.p_m, self.scalar_curvature
        weight = -s_t * (p - 1.0) * model.weights2 * self.grid ** (p - 2.0)
        return weight, model.a_m * self.mode_eigenvalues + s_t

    @cached_property
    def degree_zero_block(self) -> np.ndarray:
        """The degree-0 block J[(i, 0), (k, 0)] of the Jacobian, [k, nb, nb]:
        B diag(w) B^T plus the diagonal linear part, with w the Jacobian's
        weight contracted with phi_0^2 over the fiber nodes.  The one
        kernel for this block: the preconditioner and
        `continuation.fiber_margin` read it, and at a fiber-constant state
        every degree-j block is it plus (a_m lam_j / t) I."""
        weight, diagonal = self.jacobian_parts
        phi0 = self.model.fiber.values[0]
        block = _gram(self.model, weight, phi0 * phi0)
        diag = np.arange(block.shape[-1])
        block[..., diag, diag] += diagonal[..., 0]
        return block

    @cached_property
    def residual(self) -> np.ndarray:
        """`residual` at these states."""
        return residual(self)

    @cached_property
    def residual_norm(self) -> np.ndarray:
        return norms(self.residual)

    @cached_property
    def energy(self) -> np.ndarray:
        """`energy` at these states."""
        return energy(self)

    @cached_property
    def u_distance(self) -> np.ndarray:
        return u_distance(self.model, self.state)

    @cached_property
    def fiber_fraction(self) -> np.ndarray:
        return fiber_energy_fraction(self.state)


def stack(evaluations) -> Evaluation:
    """The members of `evaluations` (evaluations of one model) as one stack,
    in order, with the facts that all of them have computed; one
    evaluation is its own stack."""
    if len(evaluations) == 1:
        return evaluations[0]
    parts = [ev._parts() for ev in evaluations]
    state = State(np.concatenate([ev.t for ev in evaluations]),
                  np.concatenate([ev.state.coeffs for ev in evaluations]))
    return evaluations[0]._made(state, {
        name: _concatenated([p[name] for p in parts])
        for name in parts[0] if all(name in p for p in parts)})


def norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each member of a stack a [k, ...], bit for bit as
    numpy.linalg.norm gives it for the member alone: `vecdot` rounds a
    strided row (a Fortran-ordered stack) otherwise, so it reads C order."""
    flat = np.ascontiguousarray(a.reshape(len(a), -1))
    return np.sqrt(np.vecdot(flat, flat))


def residual(ev: Evaluation) -> np.ndarray:
    """Coefficients of -a_m Lap_{g(t)} u + s(t) (u - u^{p-1}) in the basis,
    [k, nb, nf].

    This is the gradient of `energy` divided by the measure factor t^{k/2};
    at t = 1 it is the gradient exactly."""
    coeffs = ev.state.coeffs
    return (ev.model.a_m * ev.mode_eigenvalues * coeffs
            + ev.scalar_curvature * (coeffs - ev.projected_power))


def energy(ev: Evaluation) -> np.ndarray:
    """Total energy of each state under g(t), measure factor included, [k]."""
    model, g, axes = ev.model, ev.grid, (-2, -1)
    grad_term = 0.5 * model.a_m * np.sum(ev.mode_eigenvalues * ev.state.coeffs**2, axis=axes)
    potential = np.sum(model.weights2 * (g**2 / 2 - g**model.p_m / model.p_m), axis=axes)
    power = model.family.fiber.dim / 2
    measure = np.array([v ** power for v in ev.t.tolist()])
    return measure * (grad_term + ev.scalar_curvature[:, 0, 0] * potential)


def _gram(model: GalerkinModel, weight: np.ndarray, fiber_product: np.ndarray) -> np.ndarray:
    """B diag(weight @ fiber_product) B^T for each member of the weights
    [k, Mb, Mf], [k, nb, nb], B the base functions at their nodes: the
    power term of the Jacobian between two fiber modes whose product at the
    fiber nodes is `fiber_product`."""
    base = model.base.values
    return (base * (weight @ fiber_product)[..., None, :]) @ base.T


def residual_jacobian(ev: Evaluation) -> np.ndarray:
    """Dense Jacobian of `residual` with respect to the coefficients for
    each member, [k, n_modes, n_modes] over row-major mode pairs: one
    `_gram` block per pair of fiber modes (j, l), fiber nodes contracted
    first, plus the diagonal linear part.  A test oracle; with one fiber
    mode it is the evaluation's `degree_zero_block` bit for bit."""
    model = ev.model
    weight, diagonal = ev.jacobian_parts
    (nb, nf), n, k = model.shape, model.n_modes, len(ev)
    fiber = model.fiber.values
    jac = np.empty((k, nb, nf, nb, nf))
    for j, l in np.ndindex(nf, nf):
        jac[:, :, j, :, l] = _gram(model, weight, fiber[j] * fiber[l])
    jac = jac.reshape(k, n, n)
    diag = np.arange(n)
    jac[:, diag, diag] += diagonal.reshape(k, n)
    return jac


def jacobian_apply(ev: Evaluation, v: np.ndarray) -> np.ndarray:
    """J v for `residual_jacobian` J at the evaluated states and coefficient
    arrays v [k, nb, nf], member by member, computed through the quadrature
    grid as `residual` is, with no n_modes x n_modes matrix."""
    base, fiber = ev.model.base.values, ev.model.fiber.values
    weight, diagonal = ev.jacobian_parts
    power = base.T @ v @ fiber
    power *= weight
    return diagonal * v + base @ power @ fiber.T


def residual_t_derivative(ev: Evaluation) -> np.ndarray:
    """Partial derivative of `residual` with respect to t at fixed
    coefficients, [k, nb, nf]."""
    model, t, coeffs = ev.model, ev.state.t, ev.state.coeffs
    dlam = -model.fiber.eigenvalues / _per_member(lambda v: v ** 2, t)
    ds = _per_member(model.scalar_curvature_dt, t)
    return model.a_m * dlam * coeffs + ds * (coeffs - ev.projected_power)


def u_distance(model: GalerkinModel, state: State) -> np.ndarray:
    """L^2(g(1)) distance of each state from the constant solution u = 1,
    [k]."""
    return norms(state.coeffs - constant_state(model, 1.0).coeffs)


def fiber_energy_fraction(state: State) -> np.ndarray:
    """Share of each state's nonconstant coefficient energy carried by modes
    that vary along the fiber factor (fiber index >= 1), [k]; 0 for a
    constant state, which has no nonconstant energy to share."""
    sq = state.coeffs ** 2
    nonconstant = sq.sum(axis=(1, 2)) - sq[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = sq[:, :, 1:].sum(axis=(1, 2)) / nonconstant
    return np.where(nonconstant == 0.0, 0.0, fraction)
