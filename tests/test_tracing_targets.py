"""The perfbench tracer wraps package functions by "module:qualname".

`perfbench/run.py --trace 1` resolves every entry of `tracing.LAYERS` when
it installs the tracer, so a package function that is renamed or deleted
breaks traced runs.  These tests load the tracer module by path and check
that every target still resolves.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from cscbif import spectra, variation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    targets = [target for layer in tracing.LAYERS for target in layer.targets]
    assert targets
    for target in targets:
        owner, attr = tracing._resolve(target)
        assert callable(getattr(owner, attr, None)), target


def test_variation_binds_the_generic_contains():
    # the tracer patches `contains` in every module that binds it by name
    assert variation.contains is spectra.contains


def test_classify_reaches_the_generic_contains(circle_sphere, monkeypatch):
    # the perfbench span test times `spectra.contains` under `classify` on
    # circle_sphere.yaml, whose window this is
    calls = []

    def counting(*args):
        calls.append(args)
        return spectra.contains(*args)

    monkeypatch.setattr(variation, "contains", counting)
    rep = variation.classify_window(circle_sphere, Fraction(1, 1000), 2)
    assert len(calls) >= len(rep.certified_instants) > 0
