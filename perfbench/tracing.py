"""Span tracing of cscbif's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, start, end, parent) and `Tracer.uninstall()` puts every
original back.  A module-level function is patched in every cscbif module
that binds it by name (``variation`` imports ``contains`` from ``spectra``,
so patching ``spectra.contains`` alone would miss its callers); a method is
patched on its class.  ``numpy.linalg`` kernels are patched on
``numpy.linalg``, which is where ``continuation`` looks them up.

`LAYERS` is the single table of what is traced, which per-layer metrics each
entry yields, and which end-to-end metric on which workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

NUMERIC = ("branch-cs16", "verify-cs16")
ALL = ("classify-deep",) + NUMERIC


@dataclass(frozen=True)
class Layer:
    name: str          # metric prefix, e.g. "spectra.contains"
    targets: tuple     # "module:qualname" of every function traced under `name`
    fields: tuple      # per-layer metrics reported as f"{name}.{field}"
    moves: str         # end-to-end metric this layer should move
    workloads: tuple   # workloads on which it should move it


def _spec(module, *qualnames):
    return tuple(f"{module}:{q}" for q in qualnames)


_SPECTRA = "cscbif.spectra"
_VAR = "cscbif.variation"
_GAL = "cscbif.galerkin"
_CONT = "cscbif.continuation"
_TIMED = ("calls", "s", "self_s")

LAYERS = (
    Layer("spectra.contains", _spec(_SPECTRA, "contains"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("spectra.entries_below",
          _spec(_SPECTRA, "SphereSpectrum.entries_below", "ExplicitSpectrum.entries_below",
                "ProductSumSpectrum.entries_below"),
          _TIMED, "wall_s", ("classify-deep",)),
    Layer("spectra.count_strictly_below", _spec(_SPECTRA, "count_strictly_below"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("variation.classify_window", _spec(_VAR, "classify_window"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("variation.certify_bifurcation", _spec(_VAR, "certify_bifurcation"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("variation.enumerate_horizontal_degeneracy",
          _spec(_VAR, "enumerate_horizontal_degeneracy"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("variation.enumerate_degeneracy", _spec(_VAR, "enumerate_degeneracy"), _TIMED,
          "wall_s", ("classify-deep",)),
    Layer("variation.morse_index", _spec(_VAR, "morse_index"), ("calls",),
          "wall_s", ("classify-deep",)),
    # runs on every residual; predicted flat everywhere
    Layer("variation.scalar_curvature", _spec(_VAR, "scalar_curvature"), ("calls",),
          "none", ()),
    Layer("galerkin.residual", _spec(_GAL, "residual"), _TIMED, "wall_s", NUMERIC),
    Layer("galerkin.residual_jacobian", _spec(_GAL, "residual_jacobian"),
          _TIMED + ("ms_per_call",), "wall_s", NUMERIC),
    Layer("galerkin.residual_t_derivative", _spec(_GAL, "residual_t_derivative"),
          ("calls", "s"), "wall_s", NUMERIC),
    Layer("galerkin.energy", _spec(_GAL, "energy"), ("calls",), "wall_s", NUMERIC),
    Layer("galerkin.build_model", _spec(_GAL, "build_model"), ("s",), "wall_s", NUMERIC),
    Layer("continuation.switch_branch", _spec(_CONT, "switch_branch"), _TIMED,
          "wall_s", ("branch-cs16",)),
    Layer("continuation.continue_branch", _spec(_CONT, "continue_branch"),
          _TIMED + ("jacobians_per_sample",), "wall_s", ("branch-cs16",)),
    Layer("continuation.lyapunov_schmidt_reduce", _spec(_CONT, "lyapunov_schmidt_reduce"),
          _TIMED, "wall_s", ("verify-cs16",)),
    Layer("continuation.verify_fiber_constancy", _spec(_CONT, "verify_fiber_constancy"),
          _TIMED + ("converged_frac", "jacobians_per_trial"), "wall_s", ("verify-cs16",)),
    Layer("continuation.detect_branch_points", _spec(_CONT, "detect_branch_points"),
          ("s",), "wall_s", NUMERIC),
    Layer("linalg.svd", _spec("numpy.linalg", "svd"), ("calls", "s", "gflop_computed"),
          "wall_s", ("branch-cs16",)),
    Layer("linalg.lstsq", _spec("numpy.linalg", "lstsq"), ("calls", "s", "gflop_computed"),
          "wall_s", NUMERIC),
    Layer("linalg.solve", _spec("numpy.linalg", "solve"), ("calls", "s", "gflop_computed"),
          "wall_s", ("verify-cs16",)),
    Layer("cli.main", _spec("cscbif.cli", "main"), ("self_s",), "wall_s", ALL),
    Layer("cli.load_config", _spec("cscbif.cli", "load_config"), ("s",), "wall_s", ALL),
)

# Metrics derived from more than one layer: name -> (moves, workloads).
DERIVED = {
    "galerkin.residuals_per_jacobian": ("wall_s", NUMERIC),
    "trace_overhead_frac": ("none", ()),
}

UNITS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "ms_per_call": ("ms", "lower"),
    "gflop_computed": ("GFLOP", "lower"),
    "jacobians_per_sample": ("ratio", "lower"),
    "jacobians_per_trial": ("ratio", "lower"),
    "converged_frac": ("ratio", "higher"),
    "residuals_per_jacobian": ("ratio", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def per_layer_metrics():
    """[(name, unit, better)] in report order; BENCHMARK.json lists the same."""
    out = [(f"{layer.name}.{f}",) + UNITS[f] for layer in LAYERS for f in layer.fields]
    out += [(name,) + UNITS[name.rsplit(".", 1)[-1]] for name in DERIVED]
    return out


# ---------------------------------------------------------------------------
# operation counts of the dense kernels, computed from operand shapes with the
# Golub & Van Loan (Matrix Computations, 4th ed.) counts; labelled "computed"
# because they ignore what LAPACK actually does inside.

def _svd_flop(args, kwargs):
    m, n = args[0].shape[-2:]
    m, n = max(m, n), min(m, n)
    if kwargs.get("compute_uv", True):
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3   # U, S, V (Golub-Reinsch)
    return 4 * m * n * n - 4 * n ** 3 / 3                  # singular values only


def _lstsq_flop(args, kwargs):
    m, n = args[0].shape[-2:]
    m, n = max(m, n), min(m, n)
    return 4 * m * n * n + 8 * n ** 3                      # SVD-based least squares


def _solve_flop(args, kwargs):
    n = args[0].shape[-1]
    b = args[1]
    k = 1 if b.ndim == 1 else b.shape[-1]
    return 2 * n ** 3 / 3 + 2 * n * n * k                  # LU with partial pivoting


_FLOP = {"linalg.svd": _svd_flop, "linalg.lstsq": _lstsq_flop, "linalg.solve": _solve_flop}


def _count_samples(result, counts):
    counts["samples"] += len(result.samples)


def _count_trials(result, counts):
    counts["trials"] += len(result.trials)
    counts["converged"] += sum(1 for row in result.trials if row.converged)


_ON_RETURN = {
    "continuation.continue_branch": _count_samples,
    "continuation.verify_fiber_constancy": _count_trials,
}


# ---------------------------------------------------------------------------

def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _binders(owner, attr):
    """Every (object, attribute) through which callers reach owner.attr."""
    if isinstance(owner, type) or not owner.__name__.startswith("cscbif"):
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [
        (mod, attr) for name, mod in sorted(sys.modules.items())
        if (name == "cscbif" or name.startswith("cscbif.")) and mod is not None
        and getattr(mod, attr, None) is original
    ]


class Tracer:
    """Records spans while installed.  Spans stay in memory; `metrics()`
    aggregates them.  Use one tracer per traced run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []       # (object, attribute, had it in own __dict__, original)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        importlib.import_module("cscbif.cli")    # every binder is loaded before patching
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    owner, attr = _resolve(target)
                    wrapper = self._wrap(layer.name, getattr(owner, attr))
                    for obj, name in _binders(owner, attr):
                        self._saved.append((obj, name, name in vars(obj), vars(obj).get(name)))
                        setattr(obj, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            obj, name, own, original = self._saved.pop()
            if own:
                setattr(obj, name, original)
            else:
                delattr(obj, name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        flop = _FLOP.get(name)
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if flop is not None:
                counts[name + ".flop"] += flop(args, kwargs)
            if on_return is not None:
                on_return(result, counts)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def _descendants(self, child, ancestor):
        """Number of `child` spans that have an `ancestor` span above them."""
        spans = self.spans
        total = 0
        for s in spans:
            if s[0] != child:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            total += p >= 0
        return total

    def metrics(self):
        """Per-layer metrics of everything recorded (trace_overhead_frac
        excepted, which needs an untraced run)."""
        calls, incl, self_s = Counter(), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            p = parent            # inclusive time counts outermost spans of a name once
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += end - start

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            n = layer.name
            values = {
                "calls": calls[n],
                "s": incl[n],
                "self_s": self_s[n],
                "ms_per_call": 1e3 * ratio(incl[n], calls[n]),
                "gflop_computed": self.counts[n + ".flop"] / 1e9,
            }
            for f in layer.fields:
                if f == "jacobians_per_sample":
                    values[f] = ratio(self._descendants("galerkin.residual_jacobian", n),
                                      self.counts["samples"])
                elif f == "jacobians_per_trial":
                    values[f] = ratio(self._descendants("galerkin.residual_jacobian", n),
                                      self.counts["trials"])
                elif f == "converged_frac":
                    values[f] = ratio(self.counts["converged"], self.counts["trials"])
                out[f"{n}.{f}"] = values[f]
        out["galerkin.residuals_per_jacobian"] = ratio(
            calls["galerkin.residual"], calls["galerkin.residual_jacobian"])
        return out
