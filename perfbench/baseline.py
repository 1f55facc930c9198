"""Run every workload over several seeds and print every metric with its unit.

    python3 perfbench/baseline.py [--seeds 0-9] [--write FILE --label TEXT]

Each (workload, seed) is one `run.py --trace 0` process, with the run length
from BENCHMARK.json; the first seed also gets one `--trace 1` run, which
gives the per-layer metrics.  For each end-to-end metric the table shows the
median, the quartiles (`statistics.quantiles(n=4)`), their distance as a
share of the median (`spread`) and the metric's bound; `failed_frac` is
failed / attempted over all runs.  `--write` stores the medians, the environment and the layer map
as a baseline that later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("environment "))[12:])
    return json.loads(lines[-1]), env


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                    "unknown")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--write", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "workloads": {}}
    for w in spec["workloads"]:
        results = []
        for seed in args.seeds:
            res, env = run(w["name"], seed, spec["run_seconds"], 0)
            results.append(res)
            print(f"{w['name']} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        traced = run(w["name"], args.seeds[0], spec["run_seconds"], 1)[0]
        attempted = sum(r["attempted"] for r in results + [traced])
        failed = sum(r["failed"] for r in results + [traced])
        e2e = {name: dict(summary([r["metrics"][name]["value"] for r in results]),
                          unit=bounds[name]["unit"]) for name in bounds}
        layers = {name: traced["metrics"][name] for name, _, _ in tracing.per_layer_metrics()}
        out["environment"] = dict(env, cpu=cpu_model())
        out["workloads"][w["name"]] = {
            "why": w["why"], "correct": all(r["correct"] for r in results + [traced]),
            "failed_frac": failed / attempted, "end_to_end": e2e, "per_layer": layers,
        }
        print(f"\n{w['name']}: failed_frac {failed / attempted:.3g} ({failed}/{attempted})")
        print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, s in e2e.items():
            print(f"  {name:<14}{s['unit']:<7}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                  f"{s['spread']:>9.4f}{bounds[name]['bound']:>7}")
        for name, s in layers.items():
            print(f"  {name:<52}{s['value']:>14.6g} {s['unit']}")
        print(flush=True)

    out["layer_map"] = [
        {"metric_prefix": layer.name, "moves": layer.moves, "on": list(layer.workloads)}
        for layer in tracing.LAYERS
    ] + [{"metric_prefix": name, "moves": moves, "on": list(on)}
         for name, (moves, on) in tracing.DERIVED.items()]
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
