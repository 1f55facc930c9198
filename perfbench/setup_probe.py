"""Set-up time of one fresh interpreter, printed in seconds.

    python3 perfbench/setup_probe.py [--build-model] CONFIG...

Times importing cscbif, loading each config and, with --build-model,
building each config's Galerkin model.  Run from the root of a source
checkout; `run.py` starts it with BLAS already pinned.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")

from cscbif import cli, galerkin  # noqa: E402

build = "--build-model" in sys.argv[1:]
for path in (a for a in sys.argv[1:] if a != "--build-model"):
    cfg = cli.load_config(path)
    if build:
        galerkin.build_model(cfg.family, cfg.galerkin.n_b, cfg.galerkin.n_f)
print(time.perf_counter() - start)
