"""Degeneracy classification along the canonical variation of a submersion.

A family here is a Riemannian submersion with totally geodesic fibers whose
fiber metric is scaled by t > 0.  Writing m = dim(total), s_h and s_g for
the base and fiber scalar curvatures and |A|^2 for the squared norm of the
integrability tensor, the scalar curvature of the scaled total metric is

    s(t) = s_h + s_g / t - t |A|^2,

and the linearization of the constant-scalar-curvature operator at the
constant solution is diagonal on eigenfunction products, with the pair
(b, lam) of a base/horizontal eigenvalue and a fiber eigenvalue crossing
zero exactly when

    (b - s_h/(m-1)) + (lam - s_g/(m-1)) / t + t |A|^2 / (m-1) = 0.

Clearing denominators turns this into the polynomial

    |A|^2 t^2 + ((m-1) b - s_h) t + ((m-1) lam - s_g) = 0,

whose positive roots are the degeneracy instants contributed by the pair.
Everything in this module is exact rational arithmetic whenever the inputs
are rational; irrational quadratic roots fall back to floats, compared
against exact data within a single global tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegeneratePointError,
    InconclusiveError,
    IncompleteSpectrumError,
    InvalidArgumentError,
    NondiscreteDegeneracyError,
    NotApplicableError,
    PreconditionError,
    UnsupportedGeometryError,
    ZeroScalarCurvatureError,
)
from .rationals import FLOAT_EQ_TOL, as_rational, exact_sqrt
from .spectra import (
    ManifoldDescriptor,
    SpectrumModel,
    contains,
    count_strictly_below,
    explicit_spectrum,
    first_nonzero,
    product_spectrum,
)


# --- joint spectrum modes ---------------------------------------------------

@dataclass(frozen=True)
class AllPairs:
    """Every (base eigenvalue, fiber eigenvalue) pair is realized on the
    total space.  This is product semantics and is only honest when the
    integrability tensor vanishes; the constructor records rather than
    enforces that."""


ALL_PAIRS = AllPairs()


@dataclass(frozen=True)
class JointPair:
    horizontal: Fraction
    fiber: Fraction
    multiplicity: int

    def __post_init__(self):
        object.__setattr__(self, "horizontal", as_rational(self.horizontal))
        object.__setattr__(self, "fiber", as_rational(self.fiber))
        if self.horizontal < 0 or self.fiber < 0:
            raise InvalidArgumentError("joint eigenvalue pairs must be nonnegative")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise InvalidArgumentError("joint pair multiplicity must be a positive integer")


@dataclass(frozen=True)
class ExplicitJoint:
    """Explicit list of realized (horizontal, fiber) eigenvalue pairs of the
    unscaled total space, optionally cross-checked against a total-space
    spectrum at t = 1."""

    pairs: tuple
    total_at_one: SpectrumModel | None = None

    def __post_init__(self):
        pairs = tuple(
            p if isinstance(p, JointPair) else JointPair(p[0], p[1], int(p[2]))
            for p in self.pairs
        )
        if not pairs:
            raise InvalidArgumentError("explicit joint mode needs at least one pair")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class SubmersionFamily:
    """Canonical variation data: fiber and base descriptors, the squared
    norm of the integrability (O'Neill) tensor, how realized eigenvalue
    pairs are to be produced, and optionally a horizontal spectrum that
    extends the base spectrum (pullbacks realize every base eigenvalue, but
    a submersion may have further horizontal Laplacian eigenvalues)."""

    fiber: ManifoldDescriptor
    base: ManifoldDescriptor
    a_norm_sq: Fraction = Fraction(0)
    joint_mode: AllPairs | ExplicitJoint = ALL_PAIRS
    horizontal: SpectrumModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "a_norm_sq", as_rational(self.a_norm_sq))
        if self.a_norm_sq < 0:
            raise InvalidArgumentError("a_norm_sq must be nonnegative")
        if self.m < 3:
            raise InvalidArgumentError(
                f"total dimension must be at least 3, got {self.m}"
            )
        if isinstance(self.joint_mode, ExplicitJoint) and self.joint_mode.total_at_one is not None:
            total = self.joint_mode.total_at_one
            for p in self.joint_mode.pairs:
                if not contains(total, p.horizontal + p.fiber):
                    raise InvalidArgumentError(
                        f"joint pair ({p.horizontal}, {p.fiber}) sums to "
                        f"{p.horizontal + p.fiber}, absent from the declared total spectrum"
                    )

    @property
    def m(self) -> int:
        return self.fiber.dim + self.base.dim

    @property
    def horizontal_spectrum(self) -> SpectrumModel:
        return self.horizontal if self.horizontal is not None else self.base.spectrum

    @property
    def is_product(self) -> bool:
        return self.a_norm_sq == 0 and isinstance(self.joint_mode, AllPairs)


def total_spectrum_at_one(fam: SubmersionFamily) -> SpectrumModel:
    """Spectrum of the unscaled total space: the exact product sum-set under
    AllPairs, the declared total under ExplicitJoint, or failing that the
    sum-set of the declared pairs (complete only as far as they reach)."""
    if isinstance(fam.joint_mode, AllPairs):
        return product_spectrum(fam.base.spectrum, fam.fiber.spectrum)
    if fam.joint_mode.total_at_one is not None:
        return fam.joint_mode.total_at_one
    sums = {}
    for p in fam.joint_mode.pairs:
        v = p.horizontal + p.fiber
        sums[v] = sums.get(v, 0) + p.multiplicity
    entries = sorted(sums.items())
    return explicit_spectrum(entries, entries[-1][0])


def scalar_curvature(fam: SubmersionFamily, t):
    """Scalar curvature s(t) = s_h + s_g / t - t |A|^2 of the total metric
    with fiber scaled by t.  Exact for rational t, float for float t."""
    if isinstance(t, float):
        if not t > 0:
            raise InvalidArgumentError(f"scale parameter must be positive, got {t}")
        return (
            float(fam.base.scalar_curvature)
            + float(fam.fiber.scalar_curvature) / t
            - t * float(fam.a_norm_sq)
        )
    t = as_rational(t)
    if t <= 0:
        raise InvalidArgumentError(f"scale parameter must be positive, got {t}")
    return fam.base.scalar_curvature + fam.fiber.scalar_curvature / t - t * fam.a_norm_sq


# --- roots of the degeneracy polynomial -------------------------------------

@dataclass(frozen=True)
class RootResult:
    """Positive roots contributed by one eigenvalue pair.  `roots` is an
    ascending tuple of at most two positive values (exact Fractions when the
    discriminant is a rational square, floats otherwise).  `all_positive`
    marks the degenerate-polynomial case in which every t > 0 solves the
    condition; `roots` is then empty."""

    roots: tuple = ()
    all_positive: bool = False

    @property
    def no_root(self) -> bool:
        return not self.roots and not self.all_positive


NO_ROOT = RootResult()
ALL_POSITIVE = RootResult(all_positive=True)


def degeneracy_roots(fam: SubmersionFamily, base_eigenvalue, fiber_eigenvalue) -> RootResult:
    """Positive solutions t of the cleared degeneracy polynomial

        |A|^2 t^2 + ((m-1) b - s_h) t + ((m-1) lam - s_g) = 0

    for the pair (b, lam).  Quadratic when |A|^2 > 0, linear when |A|^2 = 0
    with a nonzero slope, otherwise either rootless or identically zero
    (`all_positive`)."""
    b = as_rational(base_eigenvalue)
    lam = as_rational(fiber_eigenvalue)
    if b < 0 or lam < 0:
        raise InvalidArgumentError("eigenvalues must be nonnegative")
    m1 = fam.m - 1
    quad = fam.a_norm_sq
    slope = m1 * b - fam.base.scalar_curvature
    const = m1 * lam - fam.fiber.scalar_curvature

    if quad == 0:
        if slope == 0:
            return ALL_POSITIVE if const == 0 else NO_ROOT
        t = -Fraction(const, 1) / slope
        return RootResult((t,)) if t > 0 else NO_ROOT

    disc = slope * slope - 4 * quad * const
    if disc < 0:
        return NO_ROOT
    sq = exact_sqrt(disc)
    if sq is not None:
        r1 = (-slope - sq) / (2 * quad)
        r2 = (-slope + sq) / (2 * quad)
        roots = sorted({r1, r2})
    else:
        # irrational pair of roots; split the quadratic formula to avoid
        # cancellation between -slope and the square root
        s = math.sqrt(float(disc))
        fa, fb, fc = float(quad), float(slope), float(const)
        q = -(fb + math.copysign(s, fb)) / 2 if fb != 0 else s / 2
        roots = sorted({q / fa, fc / q})
    roots = tuple(r for r in roots if r > 0)
    return RootResult(roots) if roots else NO_ROOT


# --- windowed enumeration ---------------------------------------------------

@dataclass(frozen=True)
class DegeneracyInstant:
    """One element of the degenerate set, with the eigenvalue pairs that
    witness it.  `horizontal` is true when some witness is (b, 0) with b a
    nonzero base eigenvalue, i.e. the kernel contains a pullback from the
    base."""

    t: object
    witnesses: tuple
    horizontal: bool


def _check_window(t_min, t_max):
    t_min = t_min if isinstance(t_min, float) else as_rational(t_min)
    t_max = t_max if isinstance(t_max, float) else as_rational(t_max)
    if not (0 < t_min < t_max):
        raise InvalidArgumentError(
            f"window must satisfy 0 < t_min < t_max, got ({t_min}, {t_max}]"
        )
    return t_min, t_max


def pair_truncation_bounds(fam: SubmersionFamily, t_min, t_max):
    """Truncation heights that make the windowed pair scan exhaustive.

    Solving the degeneracy condition for b at fixed (lam, t) gives
    b = s_h/(m-1) - (lam - s_g/(m-1))/t - t |A|^2/(m-1); with lam >= 0 and
    t in the window this is at most s_h/(m-1) + max(0, s_g) / ((m-1) t_min).
    Symmetrically lam <= s_g/(m-1) + t_max * max(0, s_h)/(m-1).  Any pair
    above these heights has no root inside (t_min, t_max]."""
    m1 = fam.m - 1
    s_h = fam.base.scalar_curvature
    s_g = fam.fiber.scalar_curvature
    b_max = Fraction(s_h, m1) + max(Fraction(0), s_g) / (m1 * t_min)
    lam_max = Fraction(s_g, m1) + t_max * max(Fraction(0), s_h) / Fraction(m1)
    return b_max, lam_max


def _is_horizontal_witness(fam, b, lam):
    return lam == 0 and b != 0 and contains(fam.base.spectrum, b)


def _merge_instants(fam, hits):
    """Group (t, pair) hits into instants.  Exact values merge only on exact
    equality; a float merges with any value within the global tolerance."""
    hits = sorted(hits, key=lambda h: (float(h[0]), 0 if isinstance(h[0], Fraction) else 1))
    groups = []
    for t, pair in hits:
        if groups:
            t0 = groups[-1][0]
            both_exact = isinstance(t0, Fraction) and isinstance(t, Fraction)
            if (both_exact and t0 == t) or (
                not both_exact and abs(float(t0) - float(t)) <= FLOAT_EQ_TOL
            ):
                groups[-1][1].append(pair)
                continue
        groups.append((t, [pair]))
    out = []
    for t, pairs in groups:
        witnesses = tuple(sorted(set(pairs), key=lambda p: (p[0], p[1])))
        horizontal = any(_is_horizontal_witness(fam, b, lam) for b, lam in witnesses)
        out.append(DegeneracyInstant(t, witnesses, horizontal))
    return out


def _candidate_pairs(fam, t_min, t_max):
    b_max, lam_max = pair_truncation_bounds(fam, t_min, t_max)
    if isinstance(fam.joint_mode, ExplicitJoint):
        for p in fam.joint_mode.pairs:
            if p.horizontal + p.fiber == 0:
                continue
            if p.horizontal <= b_max and p.fiber <= lam_max:
                yield p.horizontal, p.fiber
        return
    if fam.a_norm_sq != 0:
        raise UnsupportedGeometryError(
            "all-pairs joint semantics needs a product (|A|^2 = 0); supply the "
            "realized pairs explicitly for a genuinely curved submersion"
        )
    extra_horizontal = fam.horizontal is not None and fam.horizontal is not fam.base.spectrum
    total = total_spectrum_at_one(fam) if extra_horizontal else None
    for be in fam.horizontal_spectrum.entries_below(b_max, include_equal=True):
        for fe in fam.fiber.spectrum.entries_below(lam_max, include_equal=True):
            if be.value == 0 and fe.value == 0:
                continue
            if total is not None and not contains(total, be.value + fe.value):
                continue
            yield be.value, fe.value


def enumerate_degeneracy(fam: SubmersionFamily, t_min, t_max):
    """All degeneracy instants in the window (t_min, t_max], ascending.

    Raises `NondiscreteDegeneracyError` when some realized pair makes the
    degeneracy polynomial vanish identically (the degenerate set is then the
    whole half line), and `UnsupportedGeometryError` when the joint mode
    cannot produce the realized pairs."""
    t_min, t_max = _check_window(t_min, t_max)
    hits = []
    for b, lam in _candidate_pairs(fam, t_min, t_max):
        rr = degeneracy_roots(fam, b, lam)
        if rr.all_positive:
            raise NondiscreteDegeneracyError((b, lam))
        for t in rr.roots:
            if t_min < t <= t_max:
                hits.append((t, (b, lam)))
    return _merge_instants(fam, hits)


def enumerate_horizontal_degeneracy(fam: SubmersionFamily, t_min, t_max):
    """Degeneracy instants witnessed by pairs (b, 0) with b a nonzero base
    eigenvalue.  These pairs are realized for every submersion (base
    eigenfunctions pull back), so no joint mode is needed and the result is
    valid for arbitrary |A|^2."""
    t_min, t_max = _check_window(t_min, t_max)
    b_max, _ = pair_truncation_bounds(fam, t_min, t_max)
    hits = []
    for be in fam.base.spectrum.entries_below(b_max, include_equal=True):
        if be.value == 0:
            continue
        rr = degeneracy_roots(fam, be.value, 0)
        if rr.all_positive:
            # Only possible when s_g = 0 and (m-1) b = s_h with |A| = 0;
            # the degenerate set is then every t > 0.
            raise NondiscreteDegeneracyError((be.value, Fraction(0)))
        for t in rr.roots:
            if t_min < t <= t_max:
                hits.append((t, (be.value, Fraction(0))))
    return _merge_instants(fam, hits)


def b_sequence(fam: SubmersionFamily, count: int):
    """The `count` largest horizontal degeneracy instants, descending.

    Requires s_g > 0, which makes s(t) strictly decreasing and unbounded
    near t = 0, so each nonzero base eigenvalue contributes exactly one
    instant (none in the product case while (m-1) b <= s_h) and larger
    eigenvalues give smaller instants."""
    if fam.fiber.scalar_curvature <= 0:
        raise PreconditionError(
            "the horizontal instant sequence needs positive fiber scalar curvature"
        )
    if not isinstance(count, int) or count < 0:
        raise InvalidArgumentError("count must be a nonnegative integer")
    out = []
    k = 1
    while len(out) < count:
        e = fam.base.spectrum.entry(k)
        k += 1
        rr = degeneracy_roots(fam, e.value, 0)
        if not rr.roots:
            continue
        assert len(rr.roots) == 1, "s_g > 0 forces a unique positive root per eigenvalue"
        out.append(rr.roots[0])
    return out


# --- Morse index and bifurcation certificates -------------------------------

def _matching_nonzero_base_eigenvalue(fam, threshold):
    """Nonzero base eigenvalue equal to `threshold` (exactly for rational
    thresholds, within the global tolerance for floats), else None."""
    if isinstance(threshold, Fraction):
        if threshold != 0 and contains(fam.base.spectrum, threshold):
            return threshold
        return None
    probe = threshold + 10 * FLOAT_EQ_TOL
    for e in fam.base.spectrum.entries_below(probe, include_equal=True):
        if e.value != 0 and abs(float(e.value) - threshold) <= FLOAT_EQ_TOL:
            return e.value
    return None


def morse_index(fam: SubmersionFamily, t) -> int:
    """Number of base Laplacian eigenvalues (with multiplicity) strictly
    below s(t) / (m - 1).  The zero eigenvalue counts whenever s(t) > 0.
    Raises `DegeneratePointError` when the threshold hits a nonzero base
    eigenvalue, i.e. when t is a horizontal degeneracy instant."""
    threshold = scalar_curvature(fam, t) / (fam.m - 1)
    if _matching_nonzero_base_eigenvalue(fam, threshold) is not None:
        raise DegeneratePointError(
            f"t = {t} is a horizontal degeneracy instant; the index jumps there"
        )
    if threshold <= 0:
        return 0
    return count_strictly_below(fam.base.spectrum, threshold)


@dataclass(frozen=True)
class BifurcationCertificate:
    """Evidence that nonconstant solutions branch off the constant one at
    `t_star`: the crossing base eigenvalue, the Morse indices at the two
    witness parameters r < t_star < s (taken inside the gaps to the
    neighboring horizontal instants), and the witnesses themselves.  The
    indices differ and s(t) - s(t_star) changes sign between them."""

    t_star: object
    base_eigenvalue: Fraction
    index_below: int
    index_above: int
    monotonicity_witness: tuple


def certify_bifurcation(fam: SubmersionFamily, t_star) -> BifurcationCertificate:
    """Certify symmetry-breaking bifurcation at the horizontal degeneracy
    instant `t_star` through a Morse index jump between nondegenerate
    parameters on either side, plus the scalar-curvature sign change that
    pins the crossing to t_star."""
    if isinstance(t_star, float):
        if not t_star > 0:
            raise InvalidArgumentError("t_star must be positive")
    else:
        t_star = as_rational(t_star)
        if t_star <= 0:
            raise InvalidArgumentError("t_star must be positive")
    s_star = scalar_curvature(fam, t_star)
    if s_star == 0 or (isinstance(s_star, float) and abs(s_star) <= FLOAT_EQ_TOL):
        raise ZeroScalarCurvatureError(
            f"scalar curvature vanishes at t = {t_star}; the criterion needs a sign"
        )
    threshold = s_star / (fam.m - 1)
    crossing = _matching_nonzero_base_eigenvalue(fam, threshold)
    if crossing is None:
        raise NotApplicableError(
            f"t = {t_star} is not a horizontal degeneracy instant of this family"
        )

    lo, hi = t_star / 4, 4 * t_star
    neighbors = enumerate_horizontal_degeneracy(fam, lo, hi)
    idx = None
    for i, inst in enumerate(neighbors):
        if inst.t == t_star or abs(float(inst.t) - float(t_star)) <= FLOAT_EQ_TOL:
            idx = i
            break
    if idx is None:  # pragma: no cover - threshold match guarantees membership
        raise NotApplicableError(f"t = {t_star} not found among horizontal instants")
    prev_t = neighbors[idx - 1].t if idx > 0 else lo
    next_t = neighbors[idx + 1].t if idx + 1 < len(neighbors) else hi
    r = (prev_t + t_star) / 2
    s = (t_star + next_t) / 2

    key = (scalar_curvature(fam, r) - s_star) * (scalar_curvature(fam, s) - s_star)
    if not key < 0:
        raise InconclusiveError(
            "scalar curvature does not change sign around t_star relative to "
            f"s(t_star); witness product {key} >= 0"
        )
    index_below = morse_index(fam, r)
    index_above = morse_index(fam, s)
    if index_below == index_above:
        raise InconclusiveError(
            f"Morse index {index_below} is unchanged across t = {t_star}"
        )
    return BifurcationCertificate(t_star, crossing, index_below, index_above, (r, s))


# --- nondiscreteness and the stability window --------------------------------

@dataclass(frozen=True)
class NondiscretenessResult:
    nondiscrete: bool
    witness: tuple | None


def check_nondiscreteness(fam: SubmersionFamily) -> NondiscretenessResult:
    """The degenerate set is the whole half line exactly when all four of
    these hold: |A| = 0; s_h/(m-1) is a horizontal Laplacian eigenvalue;
    s_g/(m-1) is a fiber eigenvalue; and their (then nonzero) sum is an
    eigenvalue of the unscaled total space."""
    if fam.a_norm_sq != 0:
        return NondiscretenessResult(False, None)
    m1 = fam.m - 1
    b = Fraction(fam.base.scalar_curvature, m1)
    lam = Fraction(fam.fiber.scalar_curvature, m1)
    if b < 0 or not contains(fam.horizontal_spectrum, b):
        return NondiscretenessResult(False, None)
    if lam < 0 or not contains(fam.fiber.spectrum, lam):
        return NondiscretenessResult(False, None)
    total = b + lam
    if total == 0 or not contains(total_spectrum_at_one(fam), total):
        return NondiscretenessResult(False, None)
    return NondiscretenessResult(True, (b, lam))


def stability_epsilon(fam: SubmersionFamily):
    """Right endpoint of the window (0, eps) on which every degeneracy is
    horizontal and bifurcating solutions are constant along fibers:
    eps = ((m-1) lam_1 - s_g) / s_h for s_h > 0 and +inf otherwise, where
    lam_1 is the first positive fiber eigenvalue.  Needs the strict gap
    lam_1 > s_g / (m-1)."""
    m1 = fam.m - 1
    lam1 = first_nonzero(fam.fiber.spectrum)
    if not lam1 > Fraction(fam.fiber.scalar_curvature, m1):
        raise NotApplicableError(
            "first positive fiber eigenvalue does not clear s_g/(m-1); no "
            "stability window is available"
        )
    if fam.base.scalar_curvature <= 0:
        return math.inf
    return (m1 * lam1 - fam.fiber.scalar_curvature) / fam.base.scalar_curvature


# --- window classification ---------------------------------------------------

@dataclass(frozen=True)
class RegimeFlags:
    """Which of the known global regimes the family falls into: nonpositive
    base scalar curvature, a genuinely curved submersion (|A| > 0), or the
    product case with the roles of the factors interchanged
    (lambda_1(base) > s_h/(m-1) > 0)."""

    base_scalar_nonpositive: bool
    oneill_positive: bool
    interchanged_product_case: bool


@dataclass(frozen=True)
class InstantRow:
    instant: DegeneracyInstant
    certificate: BifurcationCertificate | None
    certify_error: str | None
    fiber_constancy_guaranteed: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Everything `classify_window` decides about a family on (t_min, t_max]:
    nondiscreteness, the located instants with certification outcomes,
    where the instant list for the full degenerate set came from
    ('enumerated', 'stability-window', 'horizontal-only'), whether it is
    exhaustive on the window, the stability threshold, and the regime
    flags.  `stability_equality` records that on (0, eps) the degenerate
    set, its horizontal part, and the certified bifurcation set coincide."""

    t_min: object
    t_max: object
    nondiscrete: bool
    nondiscrete_witness: tuple | None
    rows: tuple
    d_source: str
    d_complete: bool
    epsilon: object
    stability_equality: bool
    regime: RegimeFlags

    @property
    def instants(self):
        return tuple(r.instant.t for r in self.rows)

    @property
    def horizontal_instants(self):
        return tuple(r.instant.t for r in self.rows if r.instant.horizontal)

    @property
    def certified_instants(self):
        return tuple(r.instant.t for r in self.rows if r.certificate is not None)


def _regime_flags(fam):
    s_h = fam.base.scalar_curvature
    interchanged = False
    if fam.is_product and s_h > 0:
        try:
            interchanged = first_nonzero(fam.base.spectrum) > Fraction(s_h, fam.m - 1)
        except IncompleteSpectrumError:
            interchanged = False
    return RegimeFlags(
        base_scalar_nonpositive=s_h <= 0,
        oneill_positive=fam.a_norm_sq > 0,
        interchanged_product_case=interchanged,
    )


def classify_window(fam: SubmersionFamily, t_min, t_max) -> ClassificationReport:
    """Classify the family on the window (t_min, t_max].

    Enumerates the degenerate set (falling back to its horizontal part on
    (0, eps), where the two provably coincide, when the joint spectrum is
    not resolvable), attempts a bifurcation certificate at every horizontal
    instant, and reports nondiscreteness as a verdict instead of raising."""
    t_min, t_max = _check_window(t_min, t_max)
    try:
        eps = stability_epsilon(fam)
    except NotApplicableError:
        eps = None

    nd = check_nondiscreteness(fam)
    if nd.nondiscrete:
        return ClassificationReport(
            t_min, t_max, True, nd.witness, (), "all-positive", True, eps,
            stability_equality=False, regime=_regime_flags(fam),
        )

    try:
        instants = enumerate_degeneracy(fam, t_min, t_max)
        d_source, d_complete = "enumerated", True
    except NondiscreteDegeneracyError as exc:
        return ClassificationReport(
            t_min, t_max, True, exc.witness, (), "all-positive", True, eps,
            stability_equality=False, regime=_regime_flags(fam),
        )
    except UnsupportedGeometryError:
        horizontal = enumerate_horizontal_degeneracy(fam, t_min, t_max)
        if eps is not None:
            instants = [i for i in horizontal if i.t < eps]
            d_source = "stability-window"
            d_complete = t_max < eps
        else:
            instants = horizontal
            d_source = "horizontal-only"
            d_complete = False

    rows = []
    for inst in instants:
        cert, err = None, None
        if inst.horizontal:
            try:
                cert = certify_bifurcation(fam, inst.t)
            except (InconclusiveError, ZeroScalarCurvatureError, NotApplicableError) as exc:
                err = f"{type(exc).__name__}: {exc}"
        else:
            err = "unclassified: no horizontal witness"
        guaranteed = eps is not None and inst.t < eps
        rows.append(InstantRow(inst, cert, err, guaranteed))

    return ClassificationReport(
        t_min, t_max, False, None, tuple(rows), d_source, d_complete, eps,
        stability_equality=eps is not None, regime=_regime_flags(fam),
    )
