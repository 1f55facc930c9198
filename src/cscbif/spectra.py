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
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IncompleteSpectrumError, InvalidArgumentError
from .rationals import as_rational, integer_keys


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
    means the enumeration is exhaustive at every height.  `counts(x)` and
    `keys_through(bound)` answer from the same entries, under the same
    completeness check.
    """

    def entry(self, k: int) -> EigenvalueEntry:
        raise NotImplementedError

    def entries_below(self, bound, include_equal=False):
        raise NotImplementedError

    def completeness_bound(self):
        return None

    def counts(self, x):
        """(total multiplicity of the eigenvalues < x, of those <= x)."""
        entries = self.entries_below(x, include_equal=True)
        at_most = sum(e.multiplicity for e in entries)
        if entries and entries[-1].value == x:
            return at_most - entries[-1].multiplicity, at_most
        return at_most, at_most

    def keys_through(self, bound):
        """(unit, keys): the eigenvalues <= bound as ascending integer keys
        over one positive rational unit, value = key * unit."""
        return integer_keys([e.value for e in self.entries_below(bound, include_equal=True)])

    def _check_enumerable(self, bound):
        if isinstance(bound, float) and not math.isfinite(bound):
            raise InvalidArgumentError(f"cannot enumerate a spectrum up to {bound!r}")
        cb = self.completeness_bound()
        if cb is not None and bound > cb:
            raise IncompleteSpectrumError(
                f"enumeration up to {bound} requested but the spectrum is only "
                f"known to be complete below {cb}"
            )


class _KeyedSpectrum(SpectrumModel):
    """A spectrum whose k-th distinct eigenvalue is `_keys[k] * _unit`, for
    ascending integer keys and one positive rational unit, kept beside the
    running multiplicity totals `_totals[k]` of entries 0..k.  Every cut is a
    bisection on the integer keys, so `counts` is O(log n) and no answer
    slices or sums a prefix, and `entries_below` is a `_Prefix` over its
    count.  `_extend(top)` makes every key <= top present when the last key
    is below top (a table has no more), and `_entries(count)` is the list of
    the first `count` entries."""

    def _extend(self, top):
        pass

    def _top(self, x):
        """divmod(x / unit, 1) as integers: the largest key <= x and whether
        x lies off the key grid."""
        self._check_enumerable(x)
        x = x if isinstance(x, Fraction) else Fraction(x)
        unit = self._unit
        return divmod(x.numerator * unit.denominator, x.denominator * unit.numerator)

    def _through(self, top):
        """Number of entries with key <= top."""
        keys = self._keys
        if keys[-1] < top:
            self._extend(top)
        return bisect_right(keys, top)

    def counts(self, x):
        top, off = self._top(x)
        i = self._through(top)
        totals = self._totals
        at_most = totals[i - 1] if i else 0
        if off or not i or self._keys[i - 1] != top:
            return at_most, at_most
        return (totals[i - 2] if i > 1 else 0), at_most

    def keys_through(self, bound):
        return self._unit, self._keys[:self._through(self._top(bound)[0])]

    def entries_below(self, bound, include_equal=False):
        top, off = self._top(bound)
        return _Prefix(self, self._through(top if include_equal or off else top - 1))


class _Prefix:
    """The first `count` entries of a keyed spectrum, as its `entries_below`
    returns them: a read-only list whose length costs nothing and whose
    entries are built only when it is read."""

    __slots__ = ("_spectrum", "_count")
    __hash__ = None

    def __init__(self, spectrum, count):
        self._spectrum, self._count = spectrum, count

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, _Prefix):
            other = other._list()
        return self._list() == other if isinstance(other, list) else NotImplemented

    def __repr__(self):
        return repr(self._list())

    def _list(self):
        return self._spectrum._entries(self._count)


@dataclass(frozen=True)
class SphereSpectrum(_KeyedSpectrum):
    """Spectrum of the round sphere of dimension `dim` and radius `radius`.

    The k-th distinct eigenvalue is k (k + dim - 1) / radius^2.  For
    dim >= 2 the multiplicity is the dimension of the degree-k spherical
    harmonics, C(dim + k, k) - C(dim + k - 2, k - 2); the circle is
    special-cased with multiplicity 2 for every k >= 1.

    Each instance enumerates its keys k (k + dim - 1) over the unit
    1 / radius^2, and their multiplicity totals, once: a cut extends them
    only when asked past their end.  The entries themselves are built once,
    when a prefix that `entries_below` returns is first read.
    """

    dim: int
    radius: Fraction
    _built: list = field(default_factory=list, init=False, repr=False, compare=False)
    _keys: list = field(default_factory=lambda: [0], init=False, repr=False, compare=False)
    _totals: list = field(default_factory=lambda: [1], init=False, repr=False, compare=False)
    _unit: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidArgumentError(f"sphere dimension must be >= 1, got {self.dim!r}")
        object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius <= 0:
            raise InvalidArgumentError(f"sphere radius must be positive, got {self.radius}")
        object.__setattr__(self, "_unit", 1 / self.radius**2)

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

    def _extend(self, top):
        keys, totals = self._keys, self._totals
        while keys[-1] < top:
            k = len(keys)
            keys.append(k * (k + self.dim - 1))
            totals.append(totals[-1] + self._multiplicity(k))

    def _entries(self, count):
        built = self._built
        while len(built) < count:
            built.append(self.entry(len(built)))
        return built[:count]


@dataclass(frozen=True)
class ExplicitSpectrum(_KeyedSpectrum):
    """User-tabulated spectrum, complete for all values <= `complete_below`.
    Its keys are the values over the unit 1 / (common denominator)."""

    entries: tuple
    complete_below: Fraction
    _keys: list = field(init=False, repr=False, compare=False)
    _totals: list = field(init=False, repr=False, compare=False)
    _unit: Fraction = field(init=False, repr=False, compare=False)

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
        unit, keys = integer_keys([e.value for e in entries])
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_keys", keys)
        totals = [e.multiplicity for e in entries]
        for k in range(1, len(totals)):
            totals[k] += totals[k - 1]
        object.__setattr__(self, "_totals", totals)

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

    def _entries(self, count):
        return list(self.entries[:count])


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
    return spectrum.counts(x)[0]


def contains(spectrum: SpectrumModel, x) -> bool:
    """Exact membership of x in the spectrum: more entries reach x than lie
    below it."""
    if x < 0:
        return False
    return len(spectrum.entries_below(x, include_equal=True)) > len(spectrum.entries_below(x))


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
