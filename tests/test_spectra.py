"""Exact spectrum enumeration against independent counting oracles."""

import contextlib
import math
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscbif import (
    EigenvalueEntry,
    IncompleteSpectrumError,
    InvalidArgumentError,
    contains,
    count_strictly_below,
    explicit_manifold,
    explicit_spectrum,
    first_nonzero,
    product_spectrum,
    sphere_manifold,
    sphere_spectrum,
)
from cscbif import cli
from cscbif.spectra import SphereSpectrum

from conftest import brute_force_product, harmonic_dimension


# ---------------------------------------------------------------------------
# sphere spectra against the harmonic polynomial oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_multiplicities_match_harmonic_count(n):
    spec = sphere_spectrum(n, Fraction(1))
    for k in range(7):
        e = spec.entry(k)
        assert e.value == Fraction(k * (k + n - 1))
        assert e.multiplicity == harmonic_dimension(n + 1, k)


@pytest.mark.parametrize(
    "n,radius",
    [(1, Fraction(2)), (2, Fraction(1, 2)), (3, Fraction(3, 7))],
)
def test_sphere_radius_scaling(n, radius):
    # eigenvalues scale by 1/r^2, multiplicities do not move
    unit = sphere_spectrum(n, Fraction(1))
    scaled = sphere_spectrum(n, radius)
    for k in range(6):
        assert scaled.entry(k).value == unit.entry(k).value / radius**2
        assert scaled.entry(k).multiplicity == unit.entry(k).multiplicity


def test_sphere_two_first_entries():
    spec = sphere_spectrum(2, Fraction(1))
    got = [(spec.entry(k).value, spec.entry(k).multiplicity) for k in range(4)]
    assert got == [(0, 1), (2, 3), (6, 5), (12, 7)]


def test_first_nonzero_sphere_three():
    assert first_nonzero(sphere_spectrum(3, Fraction(1))) == 3


def test_contains_sphere_two():
    spec = sphere_spectrum(2, Fraction(1))
    assert contains(spec, 2)
    assert not contains(spec, 1)


def test_contains_zero_everywhere():
    for spec in (
        sphere_spectrum(4, Fraction(1, 3)),
        explicit_spectrum([(0, 1), (5, 2)], 10),
    ):
        assert contains(spec, 0)


def test_sphere_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        sphere_spectrum(0, Fraction(1))
    with pytest.raises(InvalidArgumentError):
        sphere_spectrum(2, Fraction(-1))
    with pytest.raises(InvalidArgumentError):
        sphere_spectrum(2, 0)


# ---------------------------------------------------------------------------
# explicit spectra


def test_explicit_entry_and_bound():
    spec = explicit_spectrum([(0, 1), (2, 2), (7, 1)], 9)
    assert spec.entry(2) == EigenvalueEntry(Fraction(7), 1)
    assert [e.value for e in spec.entries_below(7)] == [0, 2]
    assert [e.value for e in spec.entries_below(7, include_equal=True)] == [0, 2, 7]


def test_explicit_enumeration_past_bound_raises():
    spec = explicit_spectrum([(0, 1), (2, 2)], 5)
    assert [e.value for e in spec.entries_below(5, include_equal=True)] == [0, 2]
    assert not contains(spec, 5)
    assert count_strictly_below(spec, 5) == 3
    with pytest.raises(IncompleteSpectrumError):
        spec.entries_below(6)
    with pytest.raises(IncompleteSpectrumError):
        contains(spec, Fraction(11, 2))
    with pytest.raises(IncompleteSpectrumError):
        count_strictly_below(spec, Fraction(11, 2))
    with pytest.raises(IncompleteSpectrumError):
        spec.entry(2)


def test_explicit_validation():
    with pytest.raises(InvalidArgumentError):
        explicit_spectrum([(0, 1), (2, 2), (2, 1)], 9)  # not strictly ascending
    with pytest.raises(InvalidArgumentError):
        explicit_spectrum([(0, 1), (2, 0)], 9)  # multiplicity
    with pytest.raises(InvalidArgumentError):
        explicit_spectrum([(0, 1), (7, 1)], 5)  # bound below last entry


def test_manifold_requires_connected_ground_state():
    with pytest.raises(InvalidArgumentError):
        explicit_manifold("bad", 2, 1, [(1, 1), (3, 1)], 5)
    with pytest.raises(InvalidArgumentError):
        explicit_manifold("bad", 2, 1, [(0, 2), (3, 1)], 5)


def test_sphere_manifold_scalar_curvature():
    assert sphere_manifold(2, Fraction(1)).scalar_curvature == 2
    assert sphere_manifold(4, Fraction(1, 2)).scalar_curvature == 48
    assert sphere_manifold(1, Fraction(5)).scalar_curvature == 0


# ---------------------------------------------------------------------------
# product spectra against brute-force accumulation


def _entries(spec, bound):
    return [(e.value, e.multiplicity) for e in spec.entries_below(bound)]


@pytest.mark.parametrize(
    "left,right,bound",
    [
        (sphere_spectrum(1, Fraction(1)), sphere_spectrum(2, Fraction(1)), 40),
        (sphere_spectrum(2, Fraction(1)), sphere_spectrum(2, Fraction(1)), 50),
        (sphere_spectrum(1, Fraction(2)), sphere_spectrum(3, Fraction(1)), 30),
    ],
)
def test_product_matches_brute_force(left, right, bound):
    prod = product_spectrum(left, right)
    lefts = [(e.value, e.multiplicity) for e in left.entries_below(bound)]
    rights = [(e.value, e.multiplicity) for e in right.entries_below(bound)]
    assert _entries(prod, bound) == brute_force_product(lefts, rights, bound)


def test_product_completeness_bound_from_factors():
    left = explicit_spectrum([(0, 1), (2, 1)], 10)
    right = explicit_spectrum([(1, 1), (4, 2)], 20)
    # ExplicitSpectrum requires a (0,1) ground state only via the manifold
    # wrapper; raw spectra may start anywhere.
    prod = product_spectrum(left, right)
    assert prod.completeness_bound() == 11  # min(10 + 1, 20 + 0)
    with pytest.raises(IncompleteSpectrumError):
        prod.entries_below(12)


def test_product_entry_walks_the_sum_set():
    prod = product_spectrum(
        sphere_spectrum(1, Fraction(1)), sphere_spectrum(2, Fraction(1))
    )
    values = [prod.entry(k).value for k in range(6)]
    assert values == sorted(values)
    assert values[0] == 0
    assert prod.entry(0).multiplicity == 1


# ---------------------------------------------------------------------------
# properties

small_fraction = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=16
)


@given(n=st.integers(1, 5), radius=small_fraction, k=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_sphere_enumeration_strictly_increasing(n, radius, k):
    spec = sphere_spectrum(n, radius)
    assert spec.entry(k + 1).value > spec.entry(k).value


@st.composite
def explicit_entry_lists(draw):
    n = draw(st.integers(1, 6))
    gaps = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=12),
            min_size=n,
            max_size=n,
        )
    )
    mults = draw(st.lists(st.integers(1, 5), min_size=n + 1, max_size=n + 1))
    values = [Fraction(0)]
    for g in gaps:
        values.append(values[-1] + g)
    return list(zip(values, mults))


@given(entries=explicit_entry_lists())
@settings(max_examples=40, deadline=None)
def test_explicit_enumeration_strictly_increasing(entries):
    spec = explicit_spectrum(entries, entries[-1][0] + 1)
    for k in range(len(entries) - 1):
        assert spec.entry(k + 1).value > spec.entry(k).value


@given(
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
    ra=small_fraction,
    rb=small_fraction,
    bound=st.integers(5, 60),
)
@settings(max_examples=40, deadline=None)
def test_product_symmetry(na, nb, ra, rb, bound):
    a = sphere_spectrum(na, ra)
    b = sphere_spectrum(nb, rb)
    assert _entries(product_spectrum(a, b), bound) == _entries(
        product_spectrum(b, a), bound
    )


@given(
    n=st.integers(1, 4),
    xs=st.lists(
        st.fractions(min_value=0, max_value=60, max_denominator=8),
        min_size=2,
        max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_count_below_nondecreasing(n, xs):
    spec = sphere_spectrum(n, Fraction(1))
    xs = sorted(xs)
    counts = [count_strictly_below(spec, x) for x in xs]
    assert counts == sorted(counts)


def test_count_below_unbounded():
    spec = sphere_spectrum(2, Fraction(1))
    assert count_strictly_below(spec, 10**6) > 1000


@given(
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
    x=st.fractions(min_value=0, max_value=40, max_denominator=6),
)
@settings(max_examples=40, deadline=None)
def test_product_count_matches_double_sum(na, nb, x):
    a = sphere_spectrum(na, Fraction(1))
    b = sphere_spectrum(nb, Fraction(1))
    direct = count_strictly_below(product_spectrum(a, b), x)
    total = 0
    for ea in a.entries_below(x):
        for eb in b.entries_below(x):
            if ea.value + eb.value < x:
                total += ea.multiplicity * eb.multiplicity
    assert direct == total


# ---------------------------------------------------------------------------
# the memoized sphere enumeration


def _walk(spec, bound, include_equal):
    """Brute force: entry(k) for k = 0, 1, ... up to the bound."""
    out, k = [], 0
    while True:
        e = spec.entry(k)
        if e.value > bound or (e.value == bound and not include_equal):
            return out
        out.append(e)
        k += 1


@st.composite
def shuffled_scans(draw):
    """A sphere and a shuffled sequence of (bound, include_equal), each bound
    under both flags: its exact eigenvalues, the midpoints between them, the
    double nearest each eigenvalue and the doubles one ulp either side of
    it, 0, negative values, and Fractions with 40-digit terms: 10^-40 either
    side of an eigenvalue, and one just above 1000."""
    n = draw(st.integers(1, 5))
    radius = draw(small_fraction)
    values = [Fraction(k * (k + n - 1)) / radius**2 for k in range(7)]
    bounds = values + [(a + b) / 2 for a, b in zip(values, values[1:])]
    for v in values:
        x = float(v)
        bounds += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    tiny = Fraction(1, 10**40)
    bounds += [Fraction(0), 0.0, Fraction(-1), Fraction(-1, 7), -1e-300]
    bounds += [values[3] - tiny, values[3] + tiny, Fraction(10**45 + 1, 10**42)]
    requests = draw(st.permutations([(b, f) for b in bounds for f in (False, True)]))
    return n, radius, requests


@given(scan=shuffled_scans())
@settings(max_examples=60, deadline=None)
def test_memoized_scans_match_fresh_ones_and_the_entry_walk(scan):
    n, radius, requests = scan
    spec = sphere_spectrum(n, radius)
    for bound, include_equal in requests:
        got = spec.entries_below(bound, include_equal=include_equal)
        assert got == sphere_spectrum(n, radius).entries_below(bound, include_equal)
        assert got == _walk(sphere_spectrum(n, radius), bound, include_equal)
    # the memo is invisible to equality, hashing and repr
    twin = SphereSpectrum(n, radius)
    assert spec == twin
    assert hash(spec) == hash(twin)
    assert repr(spec) == repr(twin)


@contextlib.contextmanager
def _time_guard(seconds):
    """Raise TimeoutError in the body once it has run `seconds`, so a call
    that never returns fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the time guard needs SIGALRM")
@pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
def test_a_non_finite_bound_is_refused(x):
    # an unbounded sphere scan would grow its memo forever
    with _time_guard(1):
        for spec in (sphere_spectrum(2, Fraction(1)), explicit_spectrum([(0, 1), (2, 3)], 9)):
            for include_equal in (False, True):
                with pytest.raises(InvalidArgumentError):
                    spec.entries_below(x, include_equal=include_equal)
            if x == -math.inf:
                # below every eigenvalue, answered without a scan
                assert not contains(spec, x)
                assert count_strictly_below(spec, x) == 0
                continue
            with pytest.raises(InvalidArgumentError):
                contains(spec, x)
            with pytest.raises(InvalidArgumentError):
                count_strictly_below(spec, x)


def test_deep_classify_enumerates_the_sphere_once(tmp_path, monkeypatch):
    # 99 instants, each certified with two Morse indices: the base S1(1/2)
    # spectrum is walked once per run instead of once per scan
    calls = []
    original = SphereSpectrum.entry

    def counting(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(SphereSpectrum, "entry", counting)
    config = Path(__file__).resolve().parent.parent / "scripts/configs/circle_sphere.yaml"
    code = cli.main(["classify", "--config", str(config), "--window", "1/10000..2",
                     "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) <= 250


@pytest.mark.parametrize("x,member,below", [
    (Fraction(6), True, 4),                      # exact eigenvalue
    (Fraction(6) - Fraction(1, 10**9), False, 4),
    (Fraction(6) + Fraction(1, 10**9), False, 9),
    (math.nextafter(6.0, 0.0), False, 4),          # a float, at its exact value
    (math.nextafter(6.0, 7.0), False, 9),
    (Fraction(0), True, 0),
    (Fraction(-1, 3), False, 0),
])
def test_contains_and_count_at_the_edges(x, member, below):
    # S2(1): 0, 2, 6, 12 with multiplicities 1, 3, 5, 7; a scanned memo and
    # a fresh spectrum answer alike
    scanned = sphere_spectrum(2, Fraction(1))
    scanned.entries_below(100)
    for spec in (scanned, sphere_spectrum(2, Fraction(1))):
        assert contains(spec, x) is member
        assert count_strictly_below(spec, x) == below

