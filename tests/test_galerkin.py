"""Tensor spectral discretization: orthonormality, exact eigenvalues,
gradient consistency, and refinement stability.

The finite-difference quotients computed here are the oracle for the
residual/energy relationship; nothing in the package computes gradients
this way.
"""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cscbif
from cscbif import galerkin, variation
from cscbif.errors import (
    ConfigurationError,
    InvalidArgumentError,
    PositivityViolationError,
    UnsupportedGeometryError,
)

from conftest import linearization_at_one, one_evaluation, one_state


@pytest.fixture(scope="module")
def small_model(circle_sphere):
    return galerkin.build_model(circle_sphere, 8, 6)


def _random_positive_state(model, rng, t, scale=0.05):
    coeffs = scale * rng.standard_normal(model.shape)
    coeffs[0, 0] = np.sqrt(model.volume_at_one)
    return one_state(t, coeffs)


# ---------------------------------------------------------------------------
# construction and validation


def test_build_rejects_curved_submersions(hopf_family):
    with pytest.raises(UnsupportedGeometryError):
        galerkin.build_model(hopf_family, 8, 6)


def test_build_rejects_high_dimensional_factors():
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(3, Fraction(1)),
        base=cscbif.sphere_manifold(1, Fraction(1)),
    )
    with pytest.raises(UnsupportedGeometryError):
        galerkin.build_model(fam, 8, 6)


def test_build_rejects_tabulated_factors(nondiscrete_family):
    with pytest.raises(UnsupportedGeometryError):
        galerkin.build_model(nondiscrete_family, 8, 6)


def test_build_rejects_tiny_mode_counts(circle_sphere):
    with pytest.raises(ConfigurationError):
        galerkin.build_model(circle_sphere, 1, 6)
    with pytest.raises(ConfigurationError):
        galerkin.build_model(circle_sphere, 8, 1)


def test_state_needs_positive_t(small_model):
    with pytest.raises(InvalidArgumentError):
        one_state(0.0, np.zeros(small_model.shape))


def test_a_state_is_a_stack(small_model):
    # t [k] and coefficients [k, nb, nf]; a single state is a stack of one,
    # and an evaluation's members are taken as rows, never as an int
    with pytest.raises(InvalidArgumentError, match="stack"):
        galerkin.State(1.0, np.zeros(small_model.shape))
    with pytest.raises(InvalidArgumentError, match="stack"):
        galerkin.State(np.ones(2), np.zeros((3,) + small_model.shape))
    ev = galerkin.Evaluation(small_model, galerkin.constant_state(small_model, [0.5, 2.0]))
    assert len(ev) == 2 and len(ev[1:]) == 1 and ev[np.array([1, 0])].t.tolist() == [2.0, 0.5]
    with pytest.raises(InvalidArgumentError, match="rows"):
        ev[0]


def test_model_constants(small_model):
    assert small_model.m == 3
    assert small_model.a_m == 8
    assert small_model.p_m == 6
    assert small_model.shape == (15, 6)
    assert small_model.n_modes == 90


# ---------------------------------------------------------------------------
# quadrature and orthonormality


def test_factor_bases_are_orthonormal(small_model):
    for fb in (small_model.base, small_model.fiber):
        gram = (fb.values * fb.weights) @ fb.values.T
        assert np.abs(gram - np.eye(fb.count)).max() < 1e-12


def test_constant_rows_have_the_right_height(small_model):
    # first basis function of each factor is 1/sqrt(volume)
    assert np.allclose(
        small_model.base.values[0], 1.0 / math.sqrt(2 * math.pi), atol=1e-14
    )
    assert np.allclose(
        small_model.fiber.values[0], 1.0 / math.sqrt(4 * math.pi), atol=1e-14
    )


def test_volume_at_one(small_model):
    assert small_model.volume_at_one == pytest.approx(8 * math.pi**2, rel=1e-13)


def test_projection_inverts_evaluation(small_model):
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(small_model.shape)
    grid = galerkin.grid_values(small_model, one_state(1.0, coeffs))[0]
    back = galerkin.project(small_model, grid)
    assert np.abs(back - coeffs).max() < 1e-12


def test_fixed_weight_arrays_are_built_once(small_model):
    base, fiber = small_model.base, small_model.fiber
    assert small_model.weights2 is small_model.weights2
    assert np.array_equal(small_model.weights2, np.outer(base.weights, fiber.weights))
    assert small_model.projectors is small_model.projectors
    grid = np.random.default_rng(5).standard_normal((base.weights.size, fiber.weights.size))
    direct = (base.values * base.weights) @ grid @ (fiber.values * fiber.weights).T
    assert np.array_equal(galerkin.project(small_model, grid), direct)


def test_parseval_on_the_grid(small_model):
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(small_model.shape)
    grid = galerkin.grid_values(small_model, one_state(1.0, coeffs))[0]
    quad = float(np.sum(small_model.weights2 * grid * grid))
    assert quad == pytest.approx(float(np.sum(coeffs * coeffs)), rel=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigentable_matches_sphere_spectra(small_model, circle_sphere):
    base_spec = circle_sphere.base.spectrum
    fiber_spec = circle_sphere.fiber.spectrum
    for (i, j), (b, lam) in small_model.eigentable():
        # base modes come in cos/sin pairs above the constant
        k = (i + 1) // 2
        ell = j
        assert b == base_spec.entry(k).value
        assert lam == fiber_spec.entry(ell).value


def test_mode_eigenvalues_scale_with_t(small_model):
    states = galerkin.constant_state(small_model, [2.0, 1.0])
    lam_2, lam_1 = galerkin.Evaluation(small_model, states).mode_eigenvalues
    base_only = lam_1[:, 0]
    assert np.allclose(lam_2[:, 0], base_only)
    fiber_part = lam_1 - base_only[:, None]
    assert np.allclose(lam_2, base_only[:, None] + fiber_part / 2.0)


def test_linearization_zeroes_exactly_at_degeneracy_witnesses(
    small_model, circle_sphere
):
    for t in (Fraction(1), Fraction(1, 4), Fraction(7, 10)):
        lin = linearization_at_one(small_model, t)
        for (i, j), (b, lam) in small_model.eigentable():
            rr = variation.degeneracy_roots(circle_sphere, b, lam)
            vanishes = t in rr.roots
            if b + lam == 0:
                continue  # constant mode never witnesses a degeneracy
            if vanishes:
                assert abs(lin[i, j]) < 1e-12
            else:
                assert abs(lin[i, j]) > 1e-6


# ---------------------------------------------------------------------------
# residual and energy


def test_constant_one_is_a_solution(small_model):
    for t in (0.3, 1.0, 2.5):
        state = galerkin.constant_state(small_model, t)
        res = galerkin.residual(galerkin.Evaluation(small_model, state))
        assert np.abs(res).max() < 1e-13


def test_constant_residual_closed_form(small_model):
    # for u = c the equation collapses to s(t) (c - c^5) on the constant mode
    c, t = 1.3, 0.8
    state = galerkin.constant_state(small_model, t, c)
    res = galerkin.residual(galerkin.Evaluation(small_model, state))[0]
    s_t = 2.0 / t
    expected = s_t * (c - c**5) * math.sqrt(small_model.volume_at_one)
    assert res[0, 0] == pytest.approx(expected, rel=1e-12)
    off = np.abs(res).sum() - abs(res[0, 0])
    assert off < 1e-12


def test_energy_of_the_unit_constant(small_model):
    state = galerkin.constant_state(small_model, 1.0)
    (e,) = galerkin.energy(galerkin.Evaluation(small_model, state))
    assert e == pytest.approx(16 * math.pi**2 / 3, rel=1e-13)


def test_residual_is_the_energy_gradient_at_t_one(small_model):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        state = _random_positive_state(small_model, rng, 1.0)
        res = galerkin.residual(galerkin.Evaluation(small_model, state))[0]
        fd = np.zeros(small_model.shape)
        for idx in np.ndindex(small_model.shape):
            for sign in (+1, -1):
                pert = state.coeffs[0].copy()
                pert[idx] += sign * h
                fd[idx] += sign * galerkin.energy(one_evaluation(small_model, 1.0, pert))[0]
        fd /= 2 * h
        assert np.abs(fd - res).max() / np.abs(res).max() < 1e-6


def test_energy_gradient_scaled_identity(small_model):
    # away from t = 1 the volume element contributes t^(k/2), constant in
    # u, so the energy gradient is that multiple of the residual
    rng = np.random.default_rng(5)
    h = 1e-6
    for t in (0.4, 1.7):
        state = _random_positive_state(small_model, rng, t)
        scaled = t * galerkin.residual(galerkin.Evaluation(small_model, state))[0]  # k = 2
        fd = np.zeros(small_model.shape)
        for idx in np.ndindex(small_model.shape):
            for sign in (+1, -1):
                pert = state.coeffs[0].copy()
                pert[idx] += sign * h
                fd[idx] += sign * galerkin.energy(one_evaluation(small_model, t, pert))[0]
        fd /= 2 * h
        assert np.abs(fd - scaled).max() / np.abs(scaled).max() < 1e-6


def test_linearization_matches_jacobian_at_the_constant(small_model):
    t = 0.7
    state = galerkin.constant_state(small_model, t)
    jac = galerkin.residual_jacobian(galerkin.Evaluation(small_model, state))[0]
    lin = np.diag(linearization_at_one(small_model, t).ravel())
    assert np.abs(jac - lin).max() < 1e-10


def test_jacobian_matches_finite_differences(small_model):
    rng = np.random.default_rng(13)
    state = _random_positive_state(small_model, rng, 0.9)
    jac = galerkin.residual_jacobian(galerkin.Evaluation(small_model, state))[0]
    h = 1e-6
    n = small_model.n_modes
    fd = np.zeros((n, n))
    for col, idx in enumerate(np.ndindex(small_model.shape)):
        plus = state.coeffs[0].copy()
        plus[idx] += h
        minus = state.coeffs[0].copy()
        minus[idx] -= h
        diff = galerkin.residual(
            one_evaluation(small_model, 0.9, plus)
        ) - galerkin.residual(one_evaluation(small_model, 0.9, minus))
        fd[:, col] = diff.ravel() / (2 * h)
    assert np.abs(fd - jac).max() < 1e-8


@pytest.mark.parametrize("base_dim, fiber_dim", [(1, 2), (2, 1)])
def test_factored_jacobian_matches_dense_assembly(base_dim, fiber_dim):
    # oracle: the full tensor basis on the grid and its weighted Gram matrix
    # in one dense product, the assembly the factored contraction replaces
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(fiber_dim, Fraction(1)),
        base=cscbif.sphere_manifold(base_dim, Fraction(1)),
    )
    model = galerkin.build_model(fam, 8, 6)
    labels = (model.base.label, model.fiber.label)
    assert labels == (("fourier", "legendre") if base_dim == 1 else ("legendre", "fourier"))
    state = _random_positive_state(model, np.random.default_rng(41), 0.8)

    tensor = np.einsum(
        "im,jn->ijmn", model.base.values, model.fiber.values
    ).reshape(model.n_modes, -1)
    grid = (model.base.values.T @ state.coeffs[0] @ model.fiber.values).ravel()
    assert grid.min() > 0
    weights = np.outer(model.base.weights, model.fiber.weights).ravel()
    p = 2 * fam.m / (fam.m - 2)
    a_m = 4 * (fam.m - 1) / (fam.m - 2)
    s_t = float(variation.scalar_curvature(fam, 0.8))
    eig = (model.base.eigenvalues[:, None] + model.fiber.eigenvalues[None, :] / 0.8).ravel()
    dense = np.diag(a_m * eig + s_t) - s_t * (p - 1) * (
        (tensor * weights * grid ** (p - 2)) @ tensor.T
    )

    jac = galerkin.residual_jacobian(galerkin.Evaluation(model, state))[0]
    assert np.abs(jac - dense).max() <= 1e-12 * np.abs(dense).max()


def _mixed_product(base_dim, fiber_dim):
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(fiber_dim, Fraction(1)),
        base=cscbif.sphere_manifold(base_dim, Fraction(1)),
    )
    model = galerkin.build_model(fam, 8, 6)
    return model, _random_positive_state(model, np.random.default_rng(43), 0.8)


@pytest.mark.parametrize("base_dim, fiber_dim", [(1, 2), (2, 1)])
def test_degree_zero_block_is_the_dense_degree_zero_block(base_dim, fiber_dim):
    # oracle: the dense Jacobian at a fiber-mixed state, where the entries
    # between fiber degrees do not vanish; with one fiber mode the block is
    # the dense Jacobian bit for bit (the same Gram kernel)
    model, state = _mixed_product(base_dim, fiber_dim)
    nb, nf = model.shape
    jac = galerkin.residual_jacobian(galerkin.Evaluation(model, state))[0].reshape(nb, nf, nb, nf)
    block = galerkin.Evaluation(model, state).degree_zero_block[0]
    scale = np.abs(jac).max()
    assert block.shape == (nb, nb)
    assert np.abs(block - jac[:, 0, :, 0]).max() <= 1e-13 * scale
    off = jac.copy()
    for j in range(nf):
        off[:, j, :, j] = 0.0
    assert np.abs(off).max() > 1e-3 * scale

    sub = model.fiber_constant
    restricted = galerkin.State(state.t, state.coeffs[:, :, :1])
    ev = galerkin.Evaluation(sub, restricted)
    block = ev.degree_zero_block
    assert np.array_equal(block, galerkin.residual_jacobian(ev))


@pytest.mark.parametrize("base_dim, fiber_dim", [(1, 2), (2, 1)])
def test_jacobian_apply_is_the_dense_product(base_dim, fiber_dim):
    model, state = _mixed_product(base_dim, fiber_dim)
    ev = galerkin.Evaluation(model, state)
    jac = galerkin.residual_jacobian(galerkin.Evaluation(model, state))[0]
    for v in np.random.default_rng(47).standard_normal((3,) + model.shape):
        got = galerkin.jacobian_apply(ev, v[None])[0]
        want = jac @ v.ravel()
        assert got.shape == model.shape
        assert np.abs(got.ravel() - want).max() <= 1e-13 * np.abs(jac).max() * np.abs(v).max()


def test_t_derivative_matches_finite_differences(small_model):
    rng = np.random.default_rng(17)
    state = _random_positive_state(small_model, rng, 0.8)
    dt = galerkin.residual_t_derivative(galerkin.Evaluation(small_model, state))
    h = 1e-7
    plus = galerkin.residual(one_evaluation(small_model, 0.8 + h, state.coeffs[0]))
    minus = galerkin.residual(one_evaluation(small_model, 0.8 - h, state.coeffs[0]))
    fd = (plus - minus) / (2 * h)
    assert np.abs(fd - dt).max() < 1e-6


def test_residual_rejects_sign_changing_states(small_model):
    state = galerkin.constant_state(small_model, 0.7)
    state.coeffs[0, 1, 0] = 15.0  # drives the grid minimum well below zero
    with pytest.raises(PositivityViolationError):
        galerkin.residual(galerkin.Evaluation(small_model, state))


def test_refinement_stability(circle_sphere):
    coarse = galerkin.build_model(circle_sphere, 8, 6)
    fine = galerkin.build_model(circle_sphere, 16, 12)
    coeffs = np.zeros(coarse.shape)
    coeffs[0, 0] = math.sqrt(coarse.volume_at_one)
    coeffs[1, 0] = 0.05
    coeffs[3, 1] = 0.02
    coeffs[0, 2] = -0.03
    res_c = galerkin.residual(one_evaluation(coarse, 0.8, coeffs))[0]
    lifted = np.zeros(fine.shape)
    lifted[: coarse.shape[0], : coarse.shape[1]] = coeffs
    res_f = galerkin.residual(one_evaluation(fine, 0.8, lifted))[0]
    shared = res_f[: coarse.shape[0], : coarse.shape[1]]
    assert np.abs(shared - res_c).max() < 1e-8


# ---------------------------------------------------------------------------
# stacks


_PARTS = ("residual", "residual_norm", "energy", "u_distance", "fiber_fraction",
          "degree_zero_block")


def _parts(ev, v):
    """The parts of ev and the kernels' values at it, J v for the
    directions v [k, nb, nf] included."""
    return {**{name: getattr(ev, name) for name in _PARTS},
            "residual_t_derivative": galerkin.residual_t_derivative(ev),
            "jacobian_apply": galerkin.jacobian_apply(ev, v)}


def test_a_stacks_parts_are_its_members_parts_bit_for_bit(small_model, monkeypatch):
    # three states, the middle one constant (fiber fraction 0), evaluated
    # as one stack, as views of it and as joins of its views, before and
    # after the stack has computed its parts: every member gets the bits of
    # its own stack of one
    rng = np.random.default_rng(19)
    members = [_random_positive_state(small_model, rng, 0.6),
               galerkin.constant_state(small_model, 0.9, 1.1),
               _random_positive_state(small_model, rng, 1.3)]
    state = galerkin.State(np.concatenate([m.t for m in members]),
                           np.concatenate([m.coeffs for m in members]))
    v = rng.standard_normal((3,) + small_model.shape)
    alone = [_parts(galerkin.Evaluation(small_model, m), v[i:i + 1])
             for i, m in enumerate(members)]
    assert alone[1]["fiber_fraction"].tolist() == [0.0]

    def check(ev, rows):
        got = _parts(ev, v[rows])
        for position, i in enumerate(rows):
            for name, value in got.items():
                assert np.array_equal(value[position], alone[i][name][0]), (name, i)

    orders = ([2, 0], [1, 2], [0, 1, 2])
    for computed in (False, True):
        ev = galerkin.Evaluation(small_model, state)
        if computed:
            check(ev, [0, 1, 2])
        check(ev[np.array([2, 0])], [2, 0])
        check(ev[1:], [1, 2])
        for order in orders:
            check(galerkin.stack([ev[i:i + 1] for i in order]), order)

    # a view taken before its stack computes computes its own parts, with
    # the same bits: it copied what the stack had when it was made
    calls, energy = [], galerkin.energy
    fresh = galerkin.Evaluation(small_model, state)
    early = fresh[np.array([2, 0])]
    check(fresh, [0, 1, 2])
    monkeypatch.setattr(galerkin, "energy", lambda e: calls.append(len(e)) or energy(e))
    check(early, [2, 0])
    assert calls == [2]

    # a join of views made after the stack computed reads its parts, with
    # no kernel call
    calls = []
    monkeypatch.setattr(galerkin, "energy", calls.append)
    assert np.array_equal(galerkin.stack([ev[2:], ev[:1]]).energy, ev.energy[[2, 0]])
    assert calls == []


def test_no_evaluation_holds_another(small_model):
    # a view and a join copy their parts when made, so dropping the stack
    # frees it while they live on and read the bits it computed
    rng = np.random.default_rng(23)
    members = [_random_positive_state(small_model, rng, t) for t in (0.6, 1.3)]
    ev = galerkin.Evaluation(small_model, galerkin.State(
        np.concatenate([m.t for m in members]), np.concatenate([m.coeffs for m in members])))
    residual = ev.residual.copy()
    view, joined = ev[1:], galerkin.stack([ev[:1], ev[1:]])
    gone = weakref.ref(ev)
    del ev
    gc.collect()
    assert gone() is None
    assert np.array_equal(view.residual, residual[1:])
    assert np.array_equal(joined.residual, residual)
    assert np.array_equal(joined.grid, galerkin.grid_values(small_model, joined.state))


# ---------------------------------------------------------------------------
# diagnostics


def test_u_distance(small_model):
    state = galerkin.constant_state(small_model, 1.0)
    assert galerkin.u_distance(small_model, state)[0] == 0
    state.coeffs[0, 2, 1] = 0.25
    assert galerkin.u_distance(small_model, state)[0] == pytest.approx(0.25)


def test_fiber_fraction_extremes(small_model):
    only_fiber = np.zeros(small_model.shape)
    only_fiber[0, 3] = 0.7
    assert galerkin.fiber_energy_fraction(one_state(1.0, only_fiber))[0] == 1.0

    split = np.zeros(small_model.shape)
    split[2, 0] = 1.0
    split[0, 1] = 1.0
    assert galerkin.fiber_energy_fraction(one_state(1.0, split))[0] == pytest.approx(
        0.5
    )

    base_only = np.zeros(small_model.shape)
    base_only[0, 0] = 2.0
    base_only[3, 0] = 1.0
    assert galerkin.fiber_energy_fraction(one_state(1.0, base_only))[0] == 0.0


def test_fiber_fraction_is_zero_for_a_constant_member(small_model):
    # a constant state has no nonconstant energy to share: its fraction is
    # 0, the value every command reads, and the other members keep theirs
    coeffs = np.zeros((3,) + small_model.shape)
    coeffs[1, 0, 0] = 2.0
    coeffs[2, 0, 1] = 1.0
    fractions = galerkin.fiber_energy_fraction(galerkin.State(np.ones(3), coeffs))
    assert fractions.tolist() == [0.0, 0.0, 1.0]


@given(t=st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_unit_constant_solves_at_every_scale(t):
    fam = variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.sphere_manifold(1, Fraction(1)),
    )
    model = galerkin.build_model(fam, 4, 3)
    res = galerkin.residual(galerkin.Evaluation(model, galerkin.constant_state(model, t)))
    # roundoff scales with the curvature prefactor s(t) = 2/t
    assert np.abs(res).max() < 1e-13 * max(1.0, 2.0 / t) * 10
