"""Benchmark of the cscbif command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload drives
`cscbif.cli.main` in this process on the shipped configs (a closed loop with
one caller), repeating the workload until the next repetition would overrun
`--seconds`, and checks every output against the independent oracles in
`oracles.py`.

--trace 0 reports the end-to-end metrics: `wall_s` (median wall time of one
repetition's `cli.main` calls, report writing included), `setup_s` (median
over fresh interpreters, half started before the repetitions and half after,
of importing cscbif, loading the configs and, for the numerical workloads,
building the Galerkin model), `work_per_s` (median units of work per second)
and `peak_rss_mb` (this process).

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of `tracing.LAYERS` (medians over traced repetitions) and
`trace_overhead_frac`; traced and untraced repetitions must write the same
bytes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  BLAS is pinned to one
thread before numpy is imported, in this process and in the set-up probes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402

CONFIGS = "scripts/configs"
CIRCLE_SPHERE = f"{CONFIGS}/circle_sphere.yaml"
HOPF = f"{CONFIGS}/hopf.yaml"
NONDISCRETE = f"{CONFIGS}/nondiscrete.yaml"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 10  # fresh interpreters before and again after the repetitions
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
CS16_INSTANTS = oracles.inverse_squares(Fraction(1, 1000), 2, j_max=15)  # N_b = 16


@dataclass(frozen=True)
class Workload:
    why: str
    configs: tuple         # loaded by the set-up probe
    build_model: bool      # set-up also builds the Galerkin model
    uses_seed: bool
    calls: object          # seed -> [(cli argv, check(code, out_dir) -> Tally)]


def _classify_deep(seed):
    return [
        (["classify", "--config", CIRCLE_SPHERE, "--window", "1/10000..2"],
         partial(oracles.classify_circle_sphere,
                 expected=oracles.inverse_squares(Fraction(1, 10000), 2))),
        (["classify", "--config", HOPF], partial(oracles.classify_hopf, config_path=HOPF)),
        (["classify", "--config", NONDISCRETE],
         partial(oracles.classify_nondiscrete, witness=(2, 2))),
    ]


def _branch_cs16(seed):
    return [(["branch", "--config", CIRCLE_SPHERE],
             partial(oracles.branch, expected=CS16_INSTANTS))]


def _verify_cs16(seed):
    return [(["verify", "--config", CIRCLE_SPHERE, "--seed", str(seed)],
             partial(oracles.verify, expected=CS16_INSTANTS))]


WORKLOADS = {
    "classify-deep": Workload(
        "exact layer only: classify circle_sphere over 1/10000..2 (99 instants), "
        "then hopf (surd instants) and nondiscrete (early exit); deterministic, seed unused",
        (CIRCLE_SPHERE, HOPF, NONDISCRETE), False, False, _classify_deep),
    "branch-cs16": Workload(
        "continuation: branch on circle_sphere at 16x8, 15 branch points, SVD tangents and "
        "lstsq correctors; deterministic, seed unused",
        (CIRCLE_SPHERE,), True, False, _branch_cs16),
    "verify-cs16": Workload(
        "verify on circle_sphere at 16x8 with the seed as --seed: fiber-mixed lstsq starts "
        "and complement solves, no tangent SVD",
        (CIRCLE_SPHERE,), True, True, _verify_cs16),
}


def environment():
    """Python, numpy and BLAS versions, BLAS threads and usable cores."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_times(workload, probes):
    """Set-up times reported by `probes` fresh interpreters, one after another."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    argv += ["--build-model"] if workload.build_model else []
    argv += list(workload.configs)
    times = []
    for _ in range(probes):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


@dataclass
class Rep:
    wall: float
    tally: oracles.Tally
    out_dir: str


def run_rep(cli, calls, out_root, tracer=None):
    """One repetition: every `cli.main` call timed together, then checked."""
    out_dir = tempfile.mkdtemp(dir=out_root)
    outs = [os.path.join(out_dir, str(k)) for k in range(len(calls))]
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), tracer or contextlib.nullcontext():
        for (argv, _), out in zip(calls, outs):
            try:
                codes.append(cli.main(argv + ["--out", out]))
            except Exception:  # a crash fails the call's operations; keep measuring
                traceback.print_exc()
                codes.append(None)
    wall = time.perf_counter() - start
    tally = oracles.Tally(0, 0, 0)
    for (_, check), code, out in zip(calls, codes, outs):
        tally += check(code, out)
    return Rep(wall, tally, out_dir)


def same_outputs(a, b):
    """True when two repetition directories hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_outputs(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def repeat(seconds, once):
    """Call `once()` until the next call would overrun `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def run_untraced(cli, calls, seconds, out_root):
    reps = repeat(seconds, lambda: run_rep(cli, calls, out_root))
    return reps, {
        "wall_s": statistics.median(r.wall for r in reps),
        "work_per_s": statistics.median(r.tally.work / r.wall for r in reps),
    }


def run_traced(cli, calls, seconds, out_root):
    """Pairs of one untraced and one traced repetition, alternating which
    side runs first; per-layer metrics are medians over the traced side."""
    order = itertools.count()

    def pair():
        tracer = tracing.Tracer()
        sides = (False, True) if next(order) % 2 == 0 else (True, False)
        reps = {traced: run_rep(cli, calls, out_root, tracer if traced else None)
                for traced in sides}
        same = same_outputs(reps[False].out_dir, reps[True].out_dir)
        return reps[False], reps[True], tracer.metrics(), same

    pairs = repeat(seconds, pair)
    per_rep = [m for _, _, m, _ in pairs]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    plain_wall = statistics.median(p.wall for p, _, _, _ in pairs)
    traced_wall = statistics.median(t.wall for _, t, _, _ in pairs)
    metrics["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    reps = [r for p, t, _, _ in pairs for r in (p, t)]
    return reps, metrics, all(same for *_, same in pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "cscbif" / "__init__.py").is_file():
        print(f"perfbench: no cscbif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    calls = workload.calls(args.seed)

    print(f"workload {args.workload} seed {args.seed}"
          f" ({'used' if workload.uses_seed else 'unused: deterministic'})")
    print("environment " + json.dumps(environment()))

    setup = setup_times(workload, SETUP_PROBES) if args.trace == 0 else []
    from cscbif import cli

    os.makedirs(OUT_DIR, exist_ok=True)
    out_root = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        if args.trace == 0:
            reps, values = run_untraced(cli, calls, args.seconds, out_root)
            setup += setup_times(workload, SETUP_PROBES)
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = E2E_UNITS
            same = True
        else:
            reps, values, same = run_traced(cli, calls, args.seconds, out_root)
            units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_DIR)

    attempted = sum(r.tally.attempted for r in reps)
    failed = sum(r.tally.failed for r in reps)
    print(f"repetitions {len(reps)}, operations {attempted}, failed {failed}"
          + ("" if same else ", traced and untraced outputs differ"))
    for name, value in values.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
