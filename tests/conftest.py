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
from cscbif import variation


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


# ---------------------------------------------------------------------------
# shared discretizations (expensive enough to build once)


@pytest.fixture(scope="session")
def cs_model(circle_sphere):
    from cscbif import galerkin

    return galerkin.build_model(circle_sphere, 16, 8)


@pytest.fixture(scope="session")
def cs_branch_point(cs_model):
    from cscbif import continuation

    points = continuation.detect_branch_points(cs_model, 0.5, 1.5)
    assert len(points) == 1
    return points[0]
