"""Tests of the benchmark itself, on small windows of the shipped configs.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cscbif import cli  # noqa: E402

SMALL = oracles.inverse_squares(Fraction(1, 10), 2)          # 1, 1/4, 1/9
DEFAULT_WINDOW = oracles.inverse_squares(Fraction(1, 1000), 2)

CALLS = [
    (["classify", "--config", run.CIRCLE_SPHERE],
     partial(oracles.classify_circle_sphere, expected=DEFAULT_WINDOW)),
    (["classify", "--config", run.HOPF], partial(oracles.classify_hopf, config_path=run.HOPF)),
    (["classify", "--config", run.NONDISCRETE],
     partial(oracles.classify_nondiscrete, witness=(2, 2))),
    (["branch", "--config", run.CIRCLE_SPHERE, "--window", "1/10..2"],
     partial(oracles.branch, expected=SMALL)),
    (["verify", "--config", run.CIRCLE_SPHERE, "--window", "1/10..2", "--seed", "5"],
     partial(oracles.verify, expected=SMALL)),
]


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _binders():
    """Every (object, attribute) the tracer patches."""
    return [pair for layer in tracing.LAYERS for target in layer.targets
            for pair in tracing._binders(*tracing._resolve(target))]


def _values(binders):
    return [(vars(obj).get(name), name in vars(obj)) for obj, name in binders]


def test_traced_and_untraced_runs_write_identical_bytes(at_root, tmp_path):
    plain = run.run_rep(cli, CALLS, str(tmp_path))
    tracer = tracing.Tracer()
    traced = run.run_rep(cli, CALLS, str(tmp_path), tracer)
    assert plain.tally.failed == 0 and traced.tally.failed == 0
    assert plain.tally.attempted == traced.tally.attempted == 31 + 3 + 1 + 3 + 3
    assert run.same_outputs(plain.out_dir, traced.out_dir)
    assert sorted(os.listdir(os.path.join(plain.out_dir, "3"))) == [
        "branch_0.csv", "branch_1.csv", "branch_2.csv", "report.json"]
    metrics = tracer.metrics()
    assert metrics["linalg.svd.calls"] > 0 and metrics["linalg.solve.calls"] > 0
    assert metrics["spectra.contains.calls"] > 0
    assert metrics["continuation.verify_fiber_constancy.converged_frac"] > 0


def test_every_wrapper_is_restored(at_root):
    binders = _binders()
    before = _values(binders)
    with tracing.Tracer():
        during = _values(binders)
    assert all(d != b for d, b in zip(during, before))
    assert _values(binders) == before
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _values(binders) == before
    assert {m.__name__ for m, name in binders if name == "contains"} >= {
        "cscbif.spectra", "cscbif.variation"}


def test_spans_nest_and_self_time_excludes_children(at_root, tmp_path):
    tracer = tracing.Tracer()
    run.run_rep(cli, CALLS[:1], str(tmp_path), tracer)
    m = tracer.metrics()
    assert m["spectra.contains.self_s"] < m["spectra.contains.s"]
    assert m["spectra.entries_below.calls"] >= m["spectra.contains.calls"]
    assert m["variation.classify_window.calls"] == 1


def _drop_first_instant(out):
    path = os.path.join(out, "report.json")
    rep = json.loads(Path(path).read_text())
    dropped = rep["results"]["instants"].pop(0)
    Path(path).write_text(json.dumps(rep))
    csv_path = os.path.join(out, "instants.csv")
    lines = Path(csv_path).read_text().splitlines(keepends=True)
    Path(csv_path).write_text("".join(ln for ln in lines if not ln.startswith(dropped["t"] + ",")))


def _spoil_branch_residual(out):
    path = os.path.join(out, "branch_1.csv")
    lines = Path(path).read_text().splitlines()
    cells = lines[2].split(",")
    cells[-1] = "1e-3"
    lines[2] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _fail_verify_row(out):
    path = os.path.join(out, "report.json")
    rep = json.loads(Path(path).read_text())
    rep["results"]["rows"][0]["status"] = "failed"
    Path(path).write_text(json.dumps(rep))


@pytest.mark.parametrize("index, spoil", [
    (0, _drop_first_instant), (1, _drop_first_instant), (3, _spoil_branch_residual),
    (4, _fail_verify_row),
])
def test_broken_output_raises_failed_frac(at_root, tmp_path, index, spoil):
    argv, check = CALLS[index]
    out = str(tmp_path / "out")
    assert cli.main(argv + ["--out", out]) == 0
    good = check(0, out)
    assert good.failed == 0 and good.attempted > 0
    spoil(out)
    bad = check(0, out)
    assert bad.failed > 0 and bad.failed / bad.attempted > 0
    assert check(1, out).failed == good.attempted


def test_hopf_oracle_matches_closed_form_surd():
    roots = oracles.hopf_instants(ROOT / run.HOPF)
    # pair (16, 0): 12 t^2 + 48 t - 6 = 0, whose positive root is (-4 + 3 sqrt 2) / 2
    t16 = next(t for t, pairs in roots if (Fraction(16), Fraction(0)) in pairs)
    assert abs(float(t16) - (-4 + 3 * 2 ** 0.5) / 2) < 1e-15
    assert len(roots) == 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branch-cs16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
