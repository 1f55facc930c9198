"""The perfbench tracer wraps package functions by "module:qualname".

`perfbench/run.py --trace 1` resolves every entry of `tracing.LAYERS` when
it installs the tracer, so a package function that is renamed or deleted
breaks traced runs.  These tests load the tracer module by path and check
that every target still resolves.
"""

import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from cscbif import cli, continuation, galerkin, spectra, variation

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


@pytest.mark.parametrize("command, names", [
    ("branch", ("galerkin.residual", "galerkin.residual_t_derivative", "galerkin.energy",
                "continuation.switch_branch", "continuation.continue_branch")),
    ("verify", ("galerkin.residual", "galerkin.residual_t_derivative",
                "continuation.lyapunov_schmidt_reduce", "continuation.verify_fiber_constancy")),
])
def test_numerical_commands_reach_the_traced_galerkin_kernels(command, names, tmp_path,
                                                              monkeypatch):
    # the tracer times these kernels and entry points by patching their
    # module attributes, so the commands must call them through those
    # attributes: a value computed some other way, or an entry point bypassed
    # by a private twin, would read 0 calls (verify computes no energy)
    calls = Counter()
    modules = {"galerkin": galerkin, "continuation": continuation}
    for name in names:
        module, attr = name.split(".")

        def counting(*args, _name=name, _original=getattr(modules[module], attr), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(modules[module], attr, counting)
    data = yaml.safe_load((ROOT / "scripts" / "configs" / "circle_sphere.yaml").read_text())
    data["window"] = {"t_min": "1/2", "t_max": "3/2"}
    data["galerkin"] = {"N_b": 6, "N_f": 3}
    data["continuation"].update({"steps": 3, "trials": 2, "reduce_samples": 2})
    path = tmp_path / "family.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert all(calls[name] > 0 for name in names), calls


def test_branch_solves_each_group_step_once(tmp_path, monkeypatch):
    # the config above over (1/10, 3/2]: three horizontal cos/sin points, one
    # group, followed in lockstep: one `_newton` for the switch stack, then
    # one per continuation step over the members still running.  A member
    # runs a corrector for each of its samples after the first, and one
    # more when it stops early
    sizes = []
    original = continuation._newton

    def counting(model, state, system, linear, x, tol):
        sizes.append(len(x))
        return original(model, state, system, linear, x, tol)

    monkeypatch.setattr(continuation, "_newton", counting)
    data = yaml.safe_load((ROOT / "scripts" / "configs" / "circle_sphere.yaml").read_text())
    data["window"] = {"t_min": "1/10", "t_max": "3/2"}
    data["galerkin"] = {"N_b": 6, "N_f": 3}
    data["continuation"].update({"steps": 3})
    path = tmp_path / "family.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["branch", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["branch_points"]
    assert len(rows) == 3 and all(row["status"] == "ok" for row in rows)
    steps = max(row["samples"] - 1 + (row["stop_reason"] != "steps-exhausted") for row in rows)
    assert len(sizes) == 1 + steps
    assert sizes[0] == 3


def test_branch_measures_one_margin_matrix_per_fiber_constant_branch(cs_model,
                                                                       monkeypatch):
    # `branch` on circle_sphere.yaml at 16x8: its 15 branches are
    # fiber-constant, and each takes the smallest fiber margin of its 26
    # samples from one `eigvalsh` matrix (measuring every sample took 390)
    points = continuation.detect_branch_points(cs_model, Fraction(1, 1000), 2)
    cs_model.fiber_constant  # built first: its quadrature nodes call eigvalsh
    matrices, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    branches = list(continuation.follow_branch(cs_model, points, 1e-2, -1, 40, 4e-4))
    assert len(branches) == 15 and all(b.fiber_margin is not None for b in branches)
    assert sum(len(b) for b in branches) == 390
    assert matrices == [1] * 15


def test_the_tracer_counts_every_member_of_a_stacked_branch(circle_sphere, monkeypatch):
    # the tracer's return hooks count the samples of a `continue_branch`
    # result, here one stack of the three horizontal points of the config
    # above over (1/10, 3/2], and the trials of a `verify_fiber_constancy`
    # report
    tracing = _load_tracing(monkeypatch)
    model = galerkin.build_model(circle_sphere, 6, 3)
    points = continuation.detect_branch_points(model, Fraction(1, 10), Fraction(3, 2))
    ev, errors = continuation.switch_branch(model.fiber_constant, points, 1e-2)
    assert errors == [None] * len(points) == [None] * 3
    branch = continuation.continue_branch(model.fiber_constant, ev, -1, 3, 4e-4,
                                          origins=points)
    counts = Counter()
    tracing._ON_RETURN["continuation.continue_branch"](branch, counts)
    assert counts["samples"] == sum(branch.sizes) == sum(len(branch[i]) for i in range(3))

    report = continuation.verify_fiber_constancy(model, points[-1], 4, seed=0)
    tracing._ON_RETURN["continuation.verify_fiber_constancy"](report, counts)
    assert counts["trials"] == len(report.trials) == 4
    assert counts["converged"] == sum(row.converged for row in report.trials)
