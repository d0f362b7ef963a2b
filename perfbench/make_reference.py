"""Record the results digests and the baseline the benchmark compares against.

    python3 perfbench/make_reference.py

Run once, from the root of the checkout at the commit that defines the
benchmark.  Writes perfbench/reference.json: the results digest of every
workload for every order seed (polyline-continuity has one, under
"any").  Then writes perfbench/baseline.json: the environment and the
per-cell kernel table of a traced sep-catmap96 run at seed 0.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def digests():
    table = {}
    for name in run.WORKLOADS:
        seeds = range(workloads.ORDER_SEEDS) if workloads.SEEDED[name] else [0]
        table[name] = {}
        for seed in seeds:
            out = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_runs"))
            try:
                outcome = workloads.execute(name, workloads.setup(name, seed), seed, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if outcome["problems"]:
                raise SystemExit(f"{name} seed {seed}: {outcome['problems']}")
            key = "any" if not workloads.SEEDED[name] else str(seed)
            table[name][key] = outcome["digest"]
            print(name, key, outcome["digest"][:16], f"rate_err={outcome['rate_err']:.6f}", flush=True)
    return table


def environment():
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": os.cpu_count(),
        "numba": have_numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main():
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    ref = {"order_seeds": workloads.ORDER_SEEDS, "digests": digests()}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    traced = run.measure("sep-catmap96", 0, 0, trace=True)
    cells = [r["kernel_cells"] for r in traced["results"] if "kernel_cells" in r][0]
    baseline = {
        "environment": environment(),
        "sep-catmap96 kernel cells (seed 0, traced, 2 workers)": {
            "columns": ["n", "delta", "points", "accepted", "seconds"],
            "rows": cells,
        },
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
