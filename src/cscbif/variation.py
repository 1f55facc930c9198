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
Everything in this module is exact and uses no float tolerance.  A pair
polynomial is solved on integers: one common denominator L clears it to
A t^2 + B t + C, and a rational root is a reduced integer pair (n, d) until
an instant's row needs its Fraction.  Irrational quadratic roots are
floats.  All pair polynomials share the leading coefficient |A|^2, so two
different pairs share a root only when it is rational, and a float root
groups only with the bitwise identical roots of its own pair.  A float t
enters the Morse index by its exact binary value, and a certificate at a
float instant by its root's branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegeneratePointError,
    IncompleteSpectrumError,
    InconclusiveError,
    InvalidArgumentError,
    NondiscreteDegeneracyError,
    NotApplicableError,
    ZeroScalarCurvatureError,
)
from .rationals import as_rational
from .spectra import ManifoldDescriptor, contains, count_strictly_below, first_nonzero


# --- joint spectrum modes ---------------------------------------------------

@dataclass(frozen=True)
class AllPairs:
    """Every (base eigenvalue, fiber eigenvalue) pair is realized on the
    total space: product semantics.  `SubmersionFamily` accepts it only
    with |A|^2 = 0."""


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
    unscaled total space.  Its rows with lam > 0 are the only source of
    vertical pairs.  A row (b, 0) is a pullback, checked against the base
    spectrum and otherwise unused: pullbacks come from the base spectrum."""

    pairs: tuple

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
    norm of the integrability (O'Neill) tensor, and the joint mode that
    gives the realized eigenvalue pairs with lam > 0.  The pairs (b, 0)
    are the base eigenvalues: a horizontal eigenfunction with lam = 0 is
    constant along the fibers, hence a pullback.  Rejected: `AllPairs`
    with |A|^2 != 0, and a table row (b, 0) whose b is not a base
    eigenvalue.  `_clearing` is (m - 1, L, |A|^2 L, s_h L, s_g L) on
    integers for the least common denominator L of |A|^2, s_h and s_g."""

    fiber: ManifoldDescriptor
    base: ManifoldDescriptor
    a_norm_sq: Fraction = Fraction(0)
    joint_mode: AllPairs | ExplicitJoint = ALL_PAIRS
    _clearing: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a_norm_sq", as_rational(self.a_norm_sq))
        if self.a_norm_sq < 0:
            raise InvalidArgumentError("a_norm_sq must be nonnegative")
        if self.m < 3:
            raise InvalidArgumentError(
                f"total dimension must be at least 3, got {self.m}"
            )
        coefficients = (self.a_norm_sq, self.base.scalar_curvature, self.fiber.scalar_curvature)
        den = math.lcm(*(x.denominator for x in coefficients))
        object.__setattr__(self, "_clearing", (self.m - 1, den, *(
            x.numerator * (den // x.denominator) for x in coefficients)))
        if self.is_product:
            if self.a_norm_sq != 0:
                raise InvalidArgumentError(
                    "all-pairs joint semantics is product semantics: it needs "
                    "a_norm_sq = 0")
            return
        for p in self.joint_mode.pairs:
            if p.fiber == 0 and not contains(self.base.spectrum, p.horizontal):
                raise InvalidArgumentError(
                    f"joint pair ({p.horizontal}, 0) is a pullback, but "
                    f"{p.horizontal} is not a base eigenvalue"
                )

    @property
    def m(self) -> int:
        return self.fiber.dim + self.base.dim

    @property
    def is_product(self) -> bool:
        return isinstance(self.joint_mode, AllPairs)


def scalar_curvature(fam: SubmersionFamily, t):
    """Scalar curvature s(t) = s_h + s_g / t - t |A|^2 of the total metric
    with fiber scaled by t, exactly: a Fraction for t a rational or a float,
    which is read as its exact binary value.  The numerical layer has its
    own float view, `GalerkinModel.scalar_curvature`."""
    t = Fraction(t) if isinstance(t, float) and math.isfinite(t) else as_rational(t)
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


def _frame(fam: SubmersionFamily, b_unit, lam_unit):
    """The integers (L, A, Bb, Bh, Cl, Cg) that clear the pair polynomial of
    every pair (b, lam) = (kb b_unit, kl lam_unit) on the grid of two
    rational units by one common denominator L:

        L q(t) = A t^2 + (Bb kb - Bh) t + (Cl kl - Cg).

    A single pair (b, lam) is the grid point kb = kl = 1 of the units b, lam."""
    m1, fam_den, a, s_h, s_g = fam._clearing
    den = math.lcm(fam_den, b_unit.denominator, lam_unit.denominator)
    k = den // fam_den
    return (den, a * k, m1 * b_unit.numerator * (den // b_unit.denominator), s_h * k,
            m1 * lam_unit.numerator * (den // lam_unit.denominator), s_g * k)


def _cleared(fam, b, lam):
    """(A, B, C, L): the pair polynomial of (b, lam) times L, on integers."""
    den, a, bb, bh, cl, cg = _frame(fam, b, lam)
    return a, bb - bh, cl - cg, den


def _roots(a, b, c, den):
    """The positive roots of a t^2 + b t + c (a >= 0, the cleared pair
    polynomial times `den`), ascending: a rational root as a reduced
    integer pair (n, d), d > 0, an irrational one as the float the
    quadratic formula gives at the pair's exact coefficients a/den, b/den,
    c/den.  Returns None when the polynomial vanishes identically."""
    if a == 0:
        if b == 0:
            return None if c == 0 else []
        n, d = (-c, b) if b > 0 else (c, -b)
        g = math.gcd(n, d)
        return [(n // g, d // g)] if n > 0 else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    sq = math.isqrt(disc)
    if sq * sq == disc:
        out = []
        for n in (-b - sq, -b + sq) if sq else (-b,):
            if n > 0:
                g = math.gcd(n, 2 * a)
                out.append((n // g, 2 * a // g))
        return out
    # irrational pair of roots; split the quadratic formula to avoid
    # cancellation between -b and the square root.  Each int / int is the
    # correctly rounded value of its exact ratio
    s = math.sqrt(disc / (den * den))
    fa, fb, fc = a / den, b / den, c / den
    q = -(fb + math.copysign(s, fb)) / 2 if fb != 0 else s / 2
    return [r for r in sorted({q / fa, fc / q}) if r > 0]


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
    roots = _roots(*_cleared(fam, b, lam))
    if roots is None:
        return ALL_POSITIVE
    if not roots:
        return NO_ROOT
    return RootResult(tuple(Fraction(*t) if type(t) is tuple else t for t in roots))


# --- windowed enumeration ---------------------------------------------------

_ZERO = Fraction(0)


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
    above these heights has no root inside (t_min, t_max].  The heights are
    exact: a float end is read as its exact binary value.  An infinite
    t_max bounds lam only when s_h <= 0, and is refused otherwise."""
    m1 = fam.m - 1
    s_h = fam.base.scalar_curvature
    s_g = fam.fiber.scalar_curvature
    b_max = Fraction(s_h, m1) + max(_ZERO, s_g) / (m1 * Fraction(t_min))
    lam_max = Fraction(s_g, m1)
    if s_h > 0:
        if t_max == math.inf:
            raise InvalidArgumentError(
                "a window up to inf has no fiber truncation height when s_h > 0")
        lam_max += Fraction(t_max) * s_h / m1
    return b_max, lam_max


def _grouped(solved, t_min, t_max):
    """The roots of `solved` on (t_min, t_max], ascending: [(t, keys)] with
    the key of every pair that has t as a root.  `solved` yields
    (key, roots), a key naming its pair and `roots` as `_roots` gives them.
    A rational root (n, d) is tested against the window ends and grouped on
    its integers, and becomes a Fraction only once it is in the list.  A
    float root groups only with the bitwise identical roots of the same
    key.  The order is exact: by the correctly rounded value first,
    which is monotone, and by the exact value on a tie, a rational root
    before an equal float.  An infinite t_max is the pair (1, 0)."""
    lo_n, lo_d = t_min.as_integer_ratio()
    hi_n, hi_d = (1, 0) if t_max == math.inf else t_max.as_integer_ratio()
    groups = {}
    for key, roots in solved:
        for t in roots:
            if type(t) is tuple:
                n, d = t
                if lo_n * d < n * lo_d and n * hi_d <= hi_n * d:
                    groups.setdefault(t, []).append(key)
            elif t_min < t <= t_max:
                groups.setdefault((t, key), []).append(key)
    rows = [(_rounded(n, d), Fraction(n, d), False, keys) if type(n) is int
            else (n, n, True, keys) for (n, d), keys in groups.items()]
    rows.sort(key=lambda row: row[:3])
    return [(t, keys) for _, t, _, keys in rows]


def _rounded(n, d):
    """n / d correctly rounded, and inf past the double range, which keeps
    the rounding monotone."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def _witness(key):
    """The pair (kb b_unit, kl lam_unit) of the key (kb, b_unit, kl, lam_unit),
    in Fractions."""
    kb, b_unit, kl, lam_unit = key
    b = Fraction(kb * b_unit.numerator, b_unit.denominator) if kb else _ZERO
    return b, Fraction(kl * lam_unit.numerator, lam_unit.denominator) if kl else _ZERO


def _realized(fam, b_max, lam_max):
    """The realized pairs (b, lam) with b <= b_max and lam <= lam_max, as
    frames of `_instants`: the pullbacks (b, 0) from the base spectrum, then
    the pairs with lam > 0 of the joint mode, base x fiber for a product in
    the frame of the pullbacks, the table rows otherwise, each the grid
    point (1, 1) of its own frame."""
    ub, base = fam.base.spectrum.keys_through(b_max)
    pullbacks = [(kb, 0) for kb in base if kb]
    if not fam.is_product:
        return [(ub, _ZERO, pullbacks)] + [
            (p.horizontal, p.fiber, [(1, 1)]) for p in fam.joint_mode.pairs
            if 0 < p.fiber <= lam_max and p.horizontal <= b_max]
    ul, fiber = fam.fiber.spectrum.keys_through(lam_max)
    return [(ub, ul, pullbacks + [(kb, kl) for kb in base for kl in fiber if kl])]


def _instants(fam, frames, t_min, t_max):
    """The degeneracy instants on (t_min, t_max] of the pairs of `frames`,
    ascending, each witnessed by its pairs and horizontal when some witness
    has lam = 0.  A frame (b_unit, lam_unit, grid) holds the pairs
    (kb b_unit, kl lam_unit) for the integer keys (kb, kl) in `grid`, in
    order, and solves them on the integers of the two units.  A pair becomes
    Fractions only as the witness of an instant.  Raises
    `NondiscreteDegeneracyError` when some pair vanishes identically."""

    def solved():
        for ub, ul, grid in frames:
            den, a, bb, bh, cl, cg = _frame(fam, ub, ul)
            for kb, kl in grid:
                roots = _roots(a, bb * kb - bh, cl * kl - cg, den)
                if roots is None:
                    raise NondiscreteDegeneracyError(_witness((kb, ub, kl, ul)))
                yield (kb, ub, kl, ul), roots

    out = []
    for t, keys in _grouped(solved(), t_min, t_max):
        witnesses = [_witness(key) for key in keys]
        if len(witnesses) > 1:
            witnesses = sorted(set(witnesses))
        out.append(DegeneracyInstant(t, tuple(witnesses), any(lam == 0 for _, lam in witnesses)))
    return out


def enumerate_degeneracy(fam: SubmersionFamily, t_min, t_max):
    """All degeneracy instants in the window (t_min, t_max], ascending,
    from the realized pairs up to `pair_truncation_bounds`.  Raises
    `NondiscreteDegeneracyError` when some realized pair makes the
    degeneracy polynomial vanish identically (the degenerate set is then
    the whole half line)."""
    t_min, t_max = _check_window(t_min, t_max)
    return _instants(fam, _realized(fam, *pair_truncation_bounds(fam, t_min, t_max)), t_min, t_max)


def enumerate_horizontal_degeneracy(fam: SubmersionFamily, t_min, t_max):
    """Degeneracy instants witnessed by pairs (b, 0) with b a nonzero base
    eigenvalue, the realized pairs with lam <= 0.  These pairs are realized
    for every submersion (base eigenfunctions pull back), so no joint mode
    is needed and the result is valid for arbitrary |A|^2."""
    t_min, t_max = _check_window(t_min, t_max)
    # b_max reads t_min only: an infinite t_max is no fiber height to refuse here
    b_max, _ = pair_truncation_bounds(fam, t_min, t_min)
    return _instants(fam, _realized(fam, b_max, 0), t_min, t_max)


# --- Morse index and bifurcation certificates -------------------------------

def morse_index(fam: SubmersionFamily, t) -> int:
    """Number of base Laplacian eigenvalues (with multiplicity) strictly
    below s(t) / (m - 1), for t a rational or a float read as its exact
    binary value.  The zero eigenvalue counts whenever s(t) > 0.  Raises
    `DegeneratePointError` when the threshold is a nonzero base eigenvalue,
    i.e. when t is a horizontal degeneracy instant."""
    threshold = scalar_curvature(fam, t) / (fam.m - 1)
    if threshold != 0 and contains(fam.base.spectrum, threshold):
        raise DegeneratePointError(
            f"t = {t} is a horizontal degeneracy instant; the index jumps there"
        )
    if threshold <= 0:
        return 0
    return count_strictly_below(fam.base.spectrum, threshold)


@dataclass(frozen=True)
class BifurcationCertificate:
    """Evidence that nonconstant solutions branch off the constant one at
    the horizontal instant `t_star`: the crossing base eigenvalue b and the
    Morse indices just below and just above t_star, which are
    #{base eigenvalues < b} and #{<= b} in some order."""

    t_star: object
    base_eigenvalue: Fraction
    index_below: int
    index_above: int


def certify_bifurcation(fam: SubmersionFamily, t_star) -> BifurcationCertificate:
    """Certify symmetry-breaking bifurcation at the horizontal degeneracy
    instant `t_star` through the jump of the Morse index across it.

    Zero scalar curvature is refused first.  A rational t_star crosses at
    b = s(t_star)/(m-1), which must be a base eigenvalue.  A float t_star
    is an instant only if it equals, as its exact binary value, an instant
    of the horizontal enumeration on (t_star/4, 4 t_star]: a rational one
    or the very float the enumeration produced.  Its b comes from that
    instant's witness."""
    if not isinstance(t_star, float):
        t_star = as_rational(t_star)
    if not t_star > 0:
        raise InvalidArgumentError("t_star must be positive")
    s_star = scalar_curvature(fam, t_star)
    if s_star == 0:
        raise ZeroScalarCurvatureError(
            f"scalar curvature vanishes at t = {t_star}; the criterion needs a sign"
        )
    crossing = s_star / (fam.m - 1)
    if isinstance(t_star, float):
        instants = enumerate_horizontal_degeneracy(fam, t_star / 4, 4 * t_star)
        match = next((i for i in instants if i.t == t_star), None)
        # with no match s(t_star)/(m-1) is no base eigenvalue: `_certify` refuses it
        if match is not None:
            (crossing, _), = match.witnesses
    return _certify(fam, t_star, crossing)


def _certify(fam, t_star, crossing) -> BifurcationCertificate:
    """The certificate at `t_star`, a positive root of the crossing
    polynomial q(t) = |A|^2 t^2 + ((m-1) b - s_h) t - s_g of the pullback
    pair (b, 0), b = `crossing`.  Since s(t) - (m-1) b = -q(t)/t, the Morse
    index is #{base eigenvalues < b} where q > 0 and #{<= b} where q < 0,
    so the sign of q'(t_star) orders the two counts, which the base
    spectrum gives by one bisection.  On the cleared integers
    L q = A t^2 + B t + C and t_star = n/d, q(t_star) = 0 decides whether
    t_star is exactly a root, where the sign of q' is that of 2 A n + B d.
    Otherwise t_star is the double nearest an irrational root, whose branch
    gives the sign.  Raises `NotApplicableError` when b is no base
    eigenvalue, `InconclusiveError` at a multiple root and
    `NondiscreteDegeneracyError` when q vanishes."""
    spectrum = fam.base.spectrum
    if not contains(spectrum, crossing):
        raise NotApplicableError(
            f"t = {t_star} is not a horizontal degeneracy instant of this family"
        )
    a, b, c, den = _cleared(fam, crossing, _ZERO)
    n, d = t_star.as_integer_ratio()
    if (a * n + b * d) * n + c * d * d == 0:
        # t_star is exactly a root: the sign of q'(t_star) is exact
        sign = 2 * a * n + b * d
    else:
        # t_star is the double nearest an irrational root, where q'(t_star) =
        # +-sqrt(disc): + at the larger root and - at the smaller.  The roots'
        # product is c/a, so both are positive when c > 0
        roots = _roots(a, b, c, den)
        if len(roots) < 2 and c > 0:
            raise InconclusiveError(
                f"the two roots of the crossing polynomial of ({crossing}, 0) "
                f"round to one double t = {t_star}; the index jump cannot be placed"
            )
        sign = 1 if t_star == roots[-1] else -1
    if sign == 0:
        if a == b == c == 0:
            raise NondiscreteDegeneracyError((crossing, _ZERO))
        raise InconclusiveError(
            f"t = {t_star} is no simple root of the crossing polynomial of "
            f"({crossing}, 0); the Morse index does not change across it"
        )
    below, at_most = spectrum.counts(crossing)
    indices = (at_most, below) if sign > 0 else (below, at_most)
    return BifurcationCertificate(t_star, crossing, *indices)


# --- nondiscreteness and the stability window --------------------------------

@dataclass(frozen=True)
class NondiscretenessResult:
    nondiscrete: bool
    witness: tuple | None


def check_nondiscreteness(fam: SubmersionFamily) -> NondiscretenessResult:
    """The degenerate set is the whole half line exactly when some realized
    pair other than the constants (0, 0) makes the degeneracy polynomial
    vanish identically.  That needs |A| = 0 and the pair
    (s_h/(m-1), s_g/(m-1)), so the family is nondiscrete exactly when this
    pair is nonnegative, nonzero and among the realized pairs that the
    enumeration reads."""
    m1 = fam.m - 1
    b = Fraction(fam.base.scalar_curvature, m1)
    lam = Fraction(fam.fiber.scalar_curvature, m1)
    if fam.a_norm_sq == 0 and b >= 0 and lam >= 0 and b + lam != 0:
        in_base = contains(fam.base.spectrum, b)
        if fam.is_product:
            realized = contains(fam.fiber.spectrum, lam) and in_base
        elif lam == 0:
            realized = in_base
        else:
            realized = (b, lam) in [(p.horizontal, p.fiber) for p in fam.joint_mode.pairs]
        if realized:
            return NondiscretenessResult(True, (b, lam))
    return NondiscretenessResult(False, None)


def _first_nonzero_exceeds(spectrum, bound) -> bool:
    """Whether lambda_1 > bound is proven: by the first positive eigenvalue,
    or, for a table that lists none, by a completeness bound at or above
    `bound` (every positive eigenvalue lies beyond it)."""
    try:
        return first_nonzero(spectrum) > bound
    except IncompleteSpectrumError:
        return spectrum.completeness_bound() >= bound


def stability_epsilon(fam: SubmersionFamily):
    """Right endpoint of the window (0, eps) on which every degeneracy is
    horizontal and bifurcating solutions are constant along fibers:
    eps = ((m-1) lam_1 - s_g) / s_h for s_h > 0 and +inf otherwise, where
    lam_1 is the first positive fiber eigenvalue.  Needs the strict gap
    lam_1 > s_g / (m-1), and lam_1 itself: a fiber table with no positive
    row gives no window."""
    m1 = fam.m - 1
    try:
        lam1 = first_nonzero(fam.fiber.spectrum)
    except IncompleteSpectrumError as exc:
        raise NotApplicableError(
            "no positive fiber eigenvalue is tabulated; the stability window "
            "needs the first one"
        ) from exc
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
    (lambda_1(base) > s_h/(m-1) > 0, i.e. no nonzero base eigenvalue up to
    s_h/(m-1))."""

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
    whether the list is exhaustive on the window, the stability threshold,
    and the regime flags.  The list is exhaustive for a product, and
    otherwise when no positive fiber eigenvalue reaches the truncation
    height `lam_max` (for totally geodesic fibers, t_max < eps): the
    pullbacks are then every pair with a root in the window.
    `stability_equality` records that on (0, eps) the degenerate set, its
    horizontal part, and the certified bifurcation set coincide."""

    t_min: object
    t_max: object
    nondiscrete: bool
    nondiscrete_witness: tuple | None
    rows: tuple
    d_complete: bool
    epsilon: object
    stability_equality: bool
    regime: RegimeFlags

    @property
    def d_source(self) -> str:
        """'all-positive' for a nondiscrete family, which has no list."""
        return "all-positive" if self.nondiscrete else "enumerated"

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
    """The regime flags; they read the base spectrum only up to s_h/(m-1),
    which the nondiscreteness verdict or the enumeration has read."""
    s_h = fam.base.scalar_curvature
    interchanged = fam.is_product and s_h > 0 and all(
        be.value == 0
        for be in fam.base.spectrum.entries_below(Fraction(s_h, fam.m - 1), include_equal=True))
    return RegimeFlags(
        base_scalar_nonpositive=s_h <= 0,
        oneill_positive=fam.a_norm_sq > 0,
        interchanged_product_case=interchanged,
    )


def classify_window(fam: SubmersionFamily, t_min, t_max) -> ClassificationReport:
    """Classify the family on the window (t_min, t_max].

    Reports nondiscreteness as a verdict; otherwise enumerates the
    degenerate set, which then has no identically vanishing pair, and
    attempts a bifurcation certificate at every horizontal instant.  Only
    a joint table's rows with lam > 0 can be missing, so the list is
    complete for a product or when the first positive fiber eigenvalue
    provably exceeds the truncation height `lam_max`."""
    t_min, t_max = _check_window(t_min, t_max)
    try:
        eps = stability_epsilon(fam)
    except NotApplicableError:
        eps = None

    witness = check_nondiscreteness(fam).witness
    if witness is not None:
        return ClassificationReport(
            t_min, t_max, True, witness, (), True, eps,
            stability_equality=False, regime=_regime_flags(fam),
        )
    instants = enumerate_degeneracy(fam, t_min, t_max)
    _, lam_max = pair_truncation_bounds(fam, t_min, t_max)
    complete = fam.is_product or _first_nonzero_exceeds(fam.fiber.spectrum, lam_max)

    rows = []
    for inst in instants:
        cert, err = None, None
        if inst.horizontal:
            crossing = next(b for b, lam in inst.witnesses if lam == 0)
            try:
                cert = _certify(fam, inst.t, crossing)
            except InconclusiveError as exc:
                err = f"{type(exc).__name__}: {exc}"
        else:
            err = "unclassified: no horizontal witness"
        guaranteed = eps is not None and inst.t < eps
        rows.append(InstantRow(inst, cert, err, guaranteed))

    return ClassificationReport(
        t_min, t_max, False, None, tuple(rows), complete, eps,
        stability_equality=eps is not None, regime=_regime_flags(fam),
    )
