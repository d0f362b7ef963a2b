"""One benchmark iteration in a fresh process; run by perfbench/run.py.

    python3 perfbench/iteration.py --workload NAME --seed N --mode MODE --out DIR [--scale tiny]

MODE is `setup` (import entroflow, parse the config, build the handle,
print `ready`), `run` (one untraced iteration) or `trace` (one iteration
with the outside-in tracer installed).  `run` and `trace` print one JSON
line with the iteration's wall time, CPU time and peak RSS (this process
plus its forked column workers), the results digest, the rate error and
any failed check; `trace` adds the per-layer metrics and the span-count
check.  The entroflow sources must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import tracer
import workloads


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _iteration(args, out_dir):
    import entroflow  # noqa: F401  (imported before timing starts)

    tr = None
    if args.mode == "trace":
        tr = tracer.Tracer(f"{args.workload}-{args.seed}", out_dir / "spool")
        tr.spool_dir.mkdir(parents=True, exist_ok=True)
        tracer.install(tr)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    prepared = workloads.setup(args.workload, args.seed, args.scale)
    outcome = workloads.execute(args.workload, prepared, args.seed, out_dir, args.scale)
    wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        **{k: v for k, v in outcome.items() if k != "tables"},
    }
    if tr is not None:
        spans = tr.collect()
        (out_dir / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
        greedy_spans = sum(1 for s in spans if s[4] == "kernels.greedy")
        expected = sum(tracer.split_rows(t)[0] for t in outcome["tables"])
        result["layers"] = tracer.layer_metrics(spans)
        result["kernel_cells"] = tracer.kernel_cells(spans)
        result["span_check"] = {"greedy_spans": greedy_spans, "computed_rows": expected}
        if greedy_spans != expected:
            result["problems"].append(
                f"{greedy_spans} kernels.greedy spans but the records hold "
                f"{expected} rows the kernel must compute"
            )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.mode == "setup":
        import entroflow  # noqa: F401

        workloads.setup(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = _iteration(args, out_dir)
    except Exception:  # reported to the parent as a failed iteration
        result = {"problems": [traceback.format_exc()]}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
