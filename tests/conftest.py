"""Shared fixtures and independent reference computations.

Reference values used to pin package behavior are recomputed here by
routes that share no code with the package: sphere eigenvalue
multiplicities come from exact linear algebra on homogeneous polynomials,
product spectra from dictionary accumulation, and degeneracy instants
from a per-pair sign scan of the raw defect s(t)/(m-1) - b - lam/t
followed by bisection.  The package clears denominators and works with
polynomial coefficients instead, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

import cscbif
from cscbif import galerkin, variation


# ---------------------------------------------------------------------------
# acceptance reporting

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# oracle: spherical harmonic multiplicities by exact linear algebra


def monomial_exponents(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


def exact_rank(matrix):
    """Row rank of a matrix with Fraction entries, by Gaussian elimination."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = Fraction(1) / prow[col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def harmonic_dimension(nvars, degree):
    """Dimension of the degree-`degree` harmonic homogeneous polynomials.

    The Laplacian maps the monomial basis of degree d onto degree d - 2,
    so the harmonic space is its kernel and the dimension is
    #monomials(d) minus the rank of the Laplacian matrix.  Restricting
    harmonics to the unit sphere in R^nvars gives the full eigenspace of
    the eigenvalue d (d + nvars - 2).
    """
    mons = monomial_exponents(nvars, degree)
    if degree < 2:
        return len(mons)
    target = {m: i for i, m in enumerate(monomial_exponents(nvars, degree - 2))}
    matrix = []
    for alpha in mons:
        row = [Fraction(0)] * len(target)
        for i, a in enumerate(alpha):
            if a >= 2:
                beta = list(alpha)
                beta[i] -= 2
                row[target[tuple(beta)]] += a * (a - 1)
        matrix.append(row)
    return len(mons) - exact_rank(matrix)


# ---------------------------------------------------------------------------
# oracle: product spectra by direct accumulation


def brute_force_product(left_entries, right_entries, bound):
    """All sums below `bound` of one eigenvalue from each factor."""
    acc = {}
    for lv, lm in left_entries:
        for rv, rm in right_entries:
            v = lv + rv
            if v < bound:
                acc[v] = acc.get(v, 0) + lm * rm
    return sorted(acc.items())


# ---------------------------------------------------------------------------
# oracle: degeneracy instants by sign scan of the raw defect


def scan_pair_roots(s_h, s_g, a2, m, b, lam, t_min, t_max, n_grid=4000):
    """Roots of s(t)/(m-1) = b + lam/t in [t_min, t_max], floats only.

    Scans a uniform grid for sign changes of the defect and bisects each
    bracket.  Every family used in the tests gives a defect with at most
    two roots per pair and roots separated by far more than the grid
    spacing, so nothing is missed.
    """

    def defect(t):
        return (s_h + s_g / t - a2 * t) / (m - 1) - b - lam / t

    ts = np.linspace(float(t_min), float(t_max), n_grid)
    vals = [defect(t) for t in ts]
    roots = [float(ts[i]) for i, v in enumerate(vals) if v == 0.0]
    for i in range(n_grid - 1):
        if vals[i] == 0.0 or vals[i + 1] == 0.0:
            continue
        if vals[i] * vals[i + 1] < 0:
            lo, hi = float(ts[i]), float(ts[i + 1])
            flo = defect(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = defect(mid)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo < 1e-13:
                    break
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


def brute_force_instants(fam, pairs, t_min, t_max):
    """Degeneracy instants of `fam` on (t_min, t_max] from a pair scan.

    `pairs` is the caller's own truncated list of (b, lam) eigenvalue
    pairs; only the scalar curvature data is taken from the family.
    Returns deduplicated sorted floats.
    """
    s_h = float(fam.base.scalar_curvature)
    s_g = float(fam.fiber.scalar_curvature)
    a2 = float(fam.a_norm_sq)
    m = fam.m
    lo, hi = float(t_min), float(t_max)
    roots = []
    for b, lam in pairs:
        if b == 0 and lam == 0:
            continue
        for r in scan_pair_roots(s_h, s_g, a2, m, float(b), float(lam), lo, hi):
            if lo + 1e-9 < r <= hi + 1e-9:
                roots.append(r)
    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 1e-9:
            continue
        merged.append(r)
    return merged


def b_sequence(fam, count):
    """The `count` largest horizontal degeneracy instants of a flat family
    with s_g > 0, descending, in closed form: the pair (b, 0) crosses at
    t = s_g / ((m-1) b - s_h), once for each base eigenvalue b with
    (m-1) b > s_h, and a larger b gives a smaller t."""
    assert fam.a_norm_sq == 0 and fam.fiber.scalar_curvature > 0
    s_h, s_g, m1 = fam.base.scalar_curvature, fam.fiber.scalar_curvature, fam.m - 1
    out = []
    k = 1
    while len(out) < count:
        b = fam.base.spectrum.entry(k).value
        k += 1
        if m1 * b > s_h:
            out.append(s_g / (m1 * b - s_h))
    return out


# ---------------------------------------------------------------------------
# single states as stacks of one


def one_state(t, coeffs):
    """The state (t, coeffs [nb, nf]) as the package takes it, a stack of
    one, for t a float or an exact number read as its float."""
    return galerkin.State(np.array([float(t)]), np.asarray(coeffs)[None])


def one_evaluation(model, t, coeffs):
    """The evaluation of `one_state(t, coeffs)` in `model`."""
    return galerkin.Evaluation(model, one_state(t, coeffs))


# ---------------------------------------------------------------------------
# oracles: the linearization at u = 1 and Newton at a fixed scale


def linearization_at_one(model, t):
    """Diagonal of the linearized operator at u = 1:
    a_m (b_i + lam_j / t - s(t) / (m - 1)) per mode pair, [nb, nf], for t
    a float or an exact number read as its float."""
    t = float(t)
    lam = model.base.eigenvalues[:, None] + model.fiber.eigenvalues[None, :] / t
    return model.a_m * (lam - model.scalar_curvature(t) / (model.m - 1))


def per_member(ev, errors):
    """A Newton solve's converged stack `ev` expanded per member: for each
    member of `errors`, a stack of one of ev when its error is None (ev
    holds those members in member order), else None."""
    converged = [i for i, error in enumerate(errors) if error is None]
    out = [None] * len(errors)
    for r, i in enumerate(converged):
        out[i] = ev[r:r + 1]
    return out


def solve_bordered(model, coeffs, t, orbit, row, target):
    """The package's bordered corrector on one system, a stack of one:
    returns (ev, mu), ev a stack of one, or raises the system's error."""
    from cscbif import continuation

    ev, (mu,), (error,) = continuation._solve_bordered(
        model, np.asarray(coeffs)[None], [t], orbit, np.asarray(row)[None], [target])
    if error is not None:
        raise error
    return ev, mu


def newton_solve(model, t, initial):
    """Damped Newton at fixed t: the package's bordered corrector with the
    pin row t = t and no orbit, from a stack of one.  The initial state
    must be positive on the grid; every iterate stays positive."""
    pin = np.append(np.zeros(model.n_modes), 1.0)
    ev, _ = solve_bordered(model, initial.coeffs[0], t, None, pin, float(t))
    return ev.state


# ---------------------------------------------------------------------------
# oracle: realized eigenvalue pairs of the quaternionic Hopf fibration


def hopf_realized_pairs(b_max, lam_max):
    """Realized (b, lam, multiplicity) of S^3 -> S^7 -> S^4(1/2) with
    b <= b_max and lam <= lam_max, from the Sp(2) x Sp(1) splitting of the
    degree-k harmonics of S^7 (Berard-Bergery & Bourguignon 1982): one
    piece V(a, c) x S^q(C^2) for each 0 <= q <= k with q = k mod 2, where
    a = (k+q)/2, c = (k-q)/2, on which the total eigenvalue k(k+6) splits
    as a vertical q(q+2) plus a horizontal rest.  dim V(a, c) is Weyl's
    formula for Sp(2).  Since b >= k(k+6) - k(k+2) = 4k, every k <= b_max/4
    is scanned and no pair is missed."""
    out = []
    for k in range(int(b_max) // 4 + 1):
        for q in range(k % 2, k + 1, 2):
            b, lam = k * (k + 6) - q * (q + 2), q * (q + 2)
            if b <= b_max and lam <= lam_max:
                a, c = (k + q) // 2, (k - q) // 2
                dim_sp2 = (a - c + 1) * (c + 1) * (a + 2) * (a + c + 3) // 6
                out.append((Fraction(b), Fraction(lam), dim_sp2 * (q + 1)))
    return out


# ---------------------------------------------------------------------------
# oracle: certificate witnesses by a per-instant neighbour search


def per_instant_witnesses(fam, t_star):
    """Morse witnesses (r, s) at the horizontal instant `t_star`, found the
    slow way: enumerate the horizontal instants on (t_star/4, 4 t_star]
    afresh, locate t_star by a linear scan, and take the midpoints to its
    neighbours in that list, or to the ends of the range.  The scan matches
    t_star itself, so of two float roots closer than any tolerance each
    gets its own neighbours."""
    lo, hi = t_star / 4, 4 * t_star
    ts = [i.t for i in variation.enumerate_horizontal_degeneracy(fam, lo, hi)]
    idx = ts.index(t_star)
    prev_t = ts[idx - 1] if idx > 0 else lo
    next_t = ts[idx + 1] if idx + 1 < len(ts) else hi
    return (prev_t + t_star) / 2, (t_star + next_t) / 2


# ---------------------------------------------------------------------------
# families


@pytest.fixture(scope="session")
def circle_sphere():
    """S^1(1) base, S^2(1) fiber; the simplest product with s_g > 0."""
    return variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.sphere_manifold(1, Fraction(1)),
    )


@pytest.fixture(scope="session")
def wide_circle_sphere3():
    """S^1(2) base, S^3(1) fiber; m = 4, instants at 8/j^2."""
    return variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(3, Fraction(1)),
        base=cscbif.sphere_manifold(1, Fraction(2)),
    )


@pytest.fixture(scope="session")
def sphere_sphere():
    """S^2(1) x S^2(1); both factors curved, one vertical instant at t = 2."""
    return variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(2, Fraction(1)),
        base=cscbif.sphere_manifold(2, Fraction(1)),
    )


@pytest.fixture(scope="session")
def hopf_family():
    """S^3 fibration over S^4(1/2) with |A|^2 = 12, explicit joint pairs.

    The realized pairs are the total-space harmonics split by horizontal
    and vertical degree; only fiber-constant pairs and the first mixed
    level enter the window used in tests.
    """
    pairs = [
        (0, 0, 1),
        (4, 3, 8),
        (16, 0, 5),
        (40, 0, 14),
        (72, 0, 30),
        (112, 0, 55),
        (160, 0, 91),
        (216, 0, 140),
        (280, 0, 204),
    ]
    return variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(3, Fraction(1)),
        base=cscbif.sphere_manifold(4, Fraction(1, 2)),
        a_norm_sq=Fraction(12),
        joint_mode=variation.ExplicitJoint(pairs),
    )


def _explicit(name, dim, scalar, entries, bound):
    return cscbif.explicit_manifold(name, dim, scalar, entries, bound)


_ND_BASE_ENTRIES = [(0, 1), (2, 3), (5, 2), (9, 2), (13, 1), (20, 1)]
_ND_FIBER_ENTRIES = [(0, 1), (2, 2), (6, 1), (11, 1), (17, 2)]


@pytest.fixture(scope="session")
def nondiscrete_family():
    """Synthetic family meeting all four conditions for a non-discrete
    degenerate set: |A| = 0, s_h/(m-1) = 2 a base eigenvalue,
    s_g/(m-1) = 2 a fiber eigenvalue, and 4 realized in the product."""
    base = _explicit("base", 2, Fraction(6), _ND_BASE_ENTRIES, Fraction(25))
    fiber = _explicit("fiber", 2, Fraction(6), _ND_FIBER_ENTRIES, Fraction(25))
    return variation.SubmersionFamily(fiber=fiber, base=base)


def ablated_nondiscrete_families():
    """The synthetic family with exactly one of its four conditions broken,
    keyed by which condition: a nonzero O'Neill tensor, a shifted base or
    fiber scalar curvature, or a joint spectrum missing the combined
    eigenvalue."""
    base = _explicit("base", 2, Fraction(6), _ND_BASE_ENTRIES, Fraction(25))
    fiber = _explicit("fiber", 2, Fraction(6), _ND_FIBER_ENTRIES, Fraction(25))
    all_pairs_listed = [
        (b, l, mb * ml) for b, mb in _ND_BASE_ENTRIES for l, ml in _ND_FIBER_ENTRIES
    ]
    return {
        "oneill": variation.SubmersionFamily(
            fiber=fiber,
            base=base,
            a_norm_sq=Fraction(12),
            joint_mode=variation.ExplicitJoint(all_pairs_listed),
        ),
        "base-scalar": variation.SubmersionFamily(
            fiber=fiber,
            base=_explicit("base", 2, Fraction(7), _ND_BASE_ENTRIES, Fraction(25)),
        ),
        "fiber-scalar": variation.SubmersionFamily(
            fiber=_explicit("fiber", 2, Fraction(7), _ND_FIBER_ENTRIES, Fraction(25)),
            base=base,
        ),
        # keep 2 in both factor spectra but drop every realized pair
        # summing to 4, so the total space misses the combined eigenvalue
        "missing-sum": variation.SubmersionFamily(
            fiber=fiber,
            base=base,
            joint_mode=variation.ExplicitJoint(
                [
                    (b, l, m)
                    for b, l, m in all_pairs_listed
                    if b + l != 4 and (b, l) != (0, 0)
                ]
            ),
        ),
    }


PULLBACK_BASE = {"dim": 2, "scalar_curvature": 4, "spectrum": [[0, 1], [2, 3]],
                 "complete_below": 10}
PULLBACK_ROWS = [[0, 0, 1], [0, 1, 2]]


def pullback_nondiscrete_family(extra_rows=()):
    """A flat family with a joint table whose identically vanishing pair is
    a pullback: base of dim 2 with s_h = 4 and 2 an eigenvalue, fiber
    S^1(1) with s_g = 0, so (s_h/(m-1), s_g/(m-1)) = (2, 0) is realized
    although no table row lists it."""
    base = _explicit("base", PULLBACK_BASE["dim"], PULLBACK_BASE["scalar_curvature"],
                     PULLBACK_BASE["spectrum"], PULLBACK_BASE["complete_below"])
    return variation.SubmersionFamily(
        fiber=cscbif.sphere_manifold(1, Fraction(1)),
        base=base,
        joint_mode=variation.ExplicitJoint(PULLBACK_ROWS + list(extra_rows)),
    )


# ---------------------------------------------------------------------------
# shared discretizations (expensive enough to build once)


@pytest.fixture(scope="session")
def cs_model(circle_sphere):
    return galerkin.build_model(circle_sphere, 16, 8)


@pytest.fixture(scope="session")
def cs_branch_point(cs_model):
    from cscbif import continuation

    points = continuation.detect_branch_points(cs_model, 0.5, 1.5)
    assert len(points) == 1
    return points[0]
