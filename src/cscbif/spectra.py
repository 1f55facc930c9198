"""Exact Laplace spectra of model closed manifolds and their products.

Eigenvalues are nonnegative rationals kept as `fractions.Fraction`
throughout, so equality and membership questions downstream are decided
exactly instead of within a floating tolerance.  A spectrum model yields
distinct eigenvalues in strictly increasing order together with their
multiplicities; an explicitly tabulated model additionally declares the
bound below which its table is exhaustive and refuses enumeration past it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .errors import IncompleteSpectrumError, InvalidArgumentError
from .rationals import as_rational


@dataclass(frozen=True)
class EigenvalueEntry:
    """One distinct eigenvalue of a nonnegative Laplace-type operator."""

    value: Fraction
    multiplicity: int

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_rational(self.value))
        if self.value < 0:
            raise InvalidArgumentError(f"negative eigenvalue {self.value}")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise InvalidArgumentError(
                f"multiplicity must be a positive integer, got {self.multiplicity!r}"
            )


class SpectrumModel:
    """Strictly increasing enumeration of (eigenvalue, multiplicity) pairs.

    `entry(k)` is the k-th distinct eigenvalue.  `entries_below(bound)`
    returns every entry with value < bound (or <= bound with
    `include_equal=True`) and raises `IncompleteSpectrumError` when the
    request exceeds `completeness_bound()`.  A completeness bound of None
    means the enumeration is exhaustive at every height.
    """

    def entry(self, k: int) -> EigenvalueEntry:
        raise NotImplementedError

    def entries_below(self, bound, include_equal=False):
        raise NotImplementedError

    def completeness_bound(self):
        return None

    def _check_enumerable(self, bound):
        if isinstance(bound, float) and not math.isfinite(bound):
            raise InvalidArgumentError(f"cannot enumerate a spectrum up to {bound!r}")
        cb = self.completeness_bound()
        if cb is not None and bound > cb:
            raise IncompleteSpectrumError(
                f"enumeration up to {bound} requested but the spectrum is only "
                f"known to be complete below {cb}"
            )


def _cut(entries, bound, include_equal):
    """The prefix of the strictly ascending `entries` with value < bound
    (<= bound with `include_equal`), found by bisection on the exact values."""
    cut = bisect_right if include_equal else bisect_left
    return entries[:cut(entries, bound, key=attrgetter("value"))]


@dataclass(frozen=True)
class SphereSpectrum(SpectrumModel):
    """Spectrum of the round sphere of dimension `dim` and radius `radius`.

    The k-th distinct eigenvalue is k (k + dim - 1) / radius^2.  For
    dim >= 2 the multiplicity is the dimension of the degree-k spherical
    harmonics, C(dim + k, k) - C(dim + k - 2, k - 2); the circle is
    special-cased with multiplicity 2 for every k >= 1.

    Each instance enumerates its entries once: `entries_below` extends the
    prefix built so far only when asked past its end, then cuts it on the
    integer keys k (k + dim - 1) = radius^2 * value.
    """

    dim: int
    radius: Fraction
    _built: list = field(default_factory=list, init=False, repr=False, compare=False)
    _keys: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidArgumentError(f"sphere dimension must be >= 1, got {self.dim!r}")
        object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius <= 0:
            raise InvalidArgumentError(f"sphere radius must be positive, got {self.radius}")

    def entry(self, k):
        if k < 0:
            raise InvalidArgumentError("entry index must be nonnegative")
        value = Fraction(k * (k + self.dim - 1)) / self.radius**2
        return EigenvalueEntry(value, self._multiplicity(k))

    def _multiplicity(self, k):
        if k == 0:
            return 1
        if self.dim == 1:
            return 2
        lower = math.comb(self.dim + k - 2, k - 2) if k >= 2 else 0
        return math.comb(self.dim + k, k) - lower

    def entries_below(self, bound, include_equal=False):
        self._check_enumerable(bound)
        # key <= radius^2 bound = n / d iff key <= n // d, and key < n / d
        # iff key < ceil(n / d) = -(-n // d)
        bound = bound if isinstance(bound, Fraction) else Fraction(bound)
        n = bound.numerator * self.radius.numerator**2
        d = bound.denominator * self.radius.denominator**2
        below = -(-n // d)
        top = n // d if include_equal else below - 1
        keys = self._keys
        while not keys or keys[-1] < below:
            k = len(keys)
            keys.append(k * (k + self.dim - 1))
            self._built.append(self.entry(k))
        return self._built[:bisect_right(keys, top)]


@dataclass(frozen=True)
class ExplicitSpectrum(SpectrumModel):
    """User-tabulated spectrum, complete for all values <= `complete_below`."""

    entries: tuple
    complete_below: Fraction

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, EigenvalueEntry) else EigenvalueEntry(as_rational(e[0]), int(e[1]))
            for e in self.entries
        )
        if not entries:
            raise InvalidArgumentError("explicit spectrum needs at least one entry")
        for prev, cur in zip(entries, entries[1:]):
            if cur.value <= prev.value:
                raise InvalidArgumentError(
                    f"spectrum entries must be strictly ascending, got {prev.value} "
                    f"followed by {cur.value}"
                )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "complete_below", as_rational(self.complete_below))
        if self.complete_below < entries[-1].value:
            raise InvalidArgumentError(
                "completeness bound lies below the last tabulated eigenvalue"
            )

    def completeness_bound(self):
        return self.complete_below

    def entry(self, k):
        if k < 0:
            raise InvalidArgumentError("entry index must be nonnegative")
        if k >= len(self.entries):
            raise IncompleteSpectrumError(
                f"entry {k} requested but only {len(self.entries)} eigenvalues are "
                f"tabulated (complete below {self.complete_below})"
            )
        return self.entries[k]

    def entries_below(self, bound, include_equal=False):
        self._check_enumerable(bound)
        return list(_cut(self.entries, bound, include_equal))


@dataclass(frozen=True)
class ProductSumSpectrum(SpectrumModel):
    """Spectrum of a Riemannian product: the exact sum-set of the factor
    spectra, with multiplicities accumulated over every pair of factor
    eigenvalues adding to the same rational value."""

    left: SpectrumModel
    right: SpectrumModel

    def completeness_bound(self):
        # A sum x + y can be missed only if one addend lies past its factor's
        # completeness bound, which forces the sum above that bound plus the
        # other factor's smallest eigenvalue.
        bounds = []
        cl = self.left.completeness_bound()
        if cl is not None:
            bounds.append(cl + self.right.entry(0).value)
        cr = self.right.completeness_bound()
        if cr is not None:
            bounds.append(cr + self.left.entry(0).value)
        return min(bounds) if bounds else None

    def entries_below(self, bound, include_equal=False):
        self._check_enumerable(bound)
        lmin = self.left.entry(0).value
        rmin = self.right.entry(0).value
        lefts = self.left.entries_below(bound - rmin, include_equal=True)
        rights = self.right.entries_below(bound - lmin, include_equal=True)
        sums = {}
        for le in lefts:
            for re in rights:
                v = le.value + re.value
                if v > bound or (v == bound and not include_equal):
                    continue
                sums[v] = sums.get(v, 0) + le.multiplicity * re.multiplicity
        return [EigenvalueEntry(v, m) for v, m in sorted(sums.items())]

    def entry(self, k):
        if k < 0:
            raise InvalidArgumentError("entry index must be nonnegative")
        cb = self.completeness_bound()
        bound = self.left.entry(0).value + self.right.entry(0).value + 1
        while True:
            if cb is not None and bound > cb:
                bound = cb
            found = self.entries_below(bound, include_equal=True)
            if len(found) > k:
                return found[k]
            if cb is not None and bound >= cb:
                raise IncompleteSpectrumError(
                    f"entry {k} of the product spectrum lies beyond the "
                    f"completeness bound {cb}"
                )
            bound *= 2


def sphere_spectrum(n, radius) -> SphereSpectrum:
    """Spectrum model of the round n-sphere of the given radius."""
    return SphereSpectrum(n, as_rational(radius))


def explicit_spectrum(entries, complete_below) -> ExplicitSpectrum:
    """Spectrum model from an ascending table of (value, multiplicity)
    pairs, declared complete for all eigenvalues <= `complete_below`."""
    return ExplicitSpectrum(tuple(entries), as_rational(complete_below))


def product_spectrum(left: SpectrumModel, right: SpectrumModel) -> ProductSumSpectrum:
    """Exact sum-set spectrum of a product manifold."""
    if not isinstance(left, SpectrumModel) or not isinstance(right, SpectrumModel):
        raise InvalidArgumentError("product_spectrum expects two spectrum models")
    return ProductSumSpectrum(left, right)


def count_strictly_below(spectrum: SpectrumModel, x) -> int:
    """Total multiplicity of eigenvalues strictly below x."""
    if x <= 0:
        return 0
    return sum(e.multiplicity for e in spectrum.entries_below(x))


def contains(spectrum: SpectrumModel, x) -> bool:
    """Exact membership of x in the spectrum: the last entry up to x is x."""
    if x < 0:
        return False
    below = spectrum.entries_below(x, include_equal=True)
    return bool(below) and below[-1].value == x


def first_nonzero(spectrum: SpectrumModel) -> Fraction:
    """Smallest positive eigenvalue."""
    k = 0
    while True:
        e = spectrum.entry(k)
        if e.value > 0:
            return e.value
        k += 1


@dataclass(frozen=True)
class ManifoldDescriptor:
    """A closed connected manifold as the rest of the package sees it:
    a name, a dimension, a (constant) scalar curvature, and a Laplace
    spectrum model whose entry 0 must be the constants, (0, 1)."""

    name: str
    dim: int
    scalar_curvature: Fraction
    spectrum: SpectrumModel

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidArgumentError(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "scalar_curvature", as_rational(self.scalar_curvature))
        e0 = self.spectrum.entry(0)
        if e0.value != 0 or e0.multiplicity != 1:
            raise InvalidArgumentError(
                "spectrum entry 0 must be (0, 1) for a closed connected manifold, "
                f"got ({e0.value}, {e0.multiplicity})"
            )


def sphere_manifold(n, radius, name=None) -> ManifoldDescriptor:
    """Round n-sphere descriptor; scalar curvature n (n - 1) / radius^2."""
    radius = as_rational(radius)
    spec = sphere_spectrum(n, radius)
    if name is None:
        name = f"S{n}(r={radius})"
    scal = Fraction(n * (n - 1)) / radius**2
    return ManifoldDescriptor(name, n, scal, spec)


def explicit_manifold(name, dim, scalar_curvature, entries, complete_below) -> ManifoldDescriptor:
    """Descriptor with a tabulated spectrum."""
    return ManifoldDescriptor(
        name, dim, as_rational(scalar_curvature), explicit_spectrum(entries, complete_below)
    )
