"""entroflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the entroflow sources are taken from
`src/` there.  Each iteration runs in a fresh process (perfbench/
iteration.py) that drives the public API, persists records, verifies
them and hashes their results; the benchmark repeats iterations until
`--seconds` have passed (at least one) and reports medians.

--trace 0 prints the end-to-end metrics: wall_s (time to a verified
result), setup_s (fresh process to ready, median of several probes),
cpu_s (iteration process plus its forked column workers), peak_rss_mb
(largest resident set among them) and rate_err (headline rate's distance
in nats from its reference).  --trace 1 alternates an untraced and a
traced iteration and prints the per-layer metrics of the traced ones,
with trace.overhead_s = traced wall_s - untraced wall_s.

An iteration fails when it raises, when `records.verify_record` rejects
a record, or when its results digest differs from the digest recorded
for that seed in perfbench/reference.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workloads.SCALES)
SETUP_PROBES = 5
#: every run ends well inside the 180 s limit, however slow an iteration is
DEADLINE_S = 165.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a probe failed)."""


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _communicate(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    with subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {timeout:.0f} s"
        return proc.returncode, out, err


def setup_seconds(workload, seed, scale):
    """Seconds from starting a fresh interpreter to a parsed config and built handle."""
    cmd = [
        sys.executable, str(HERE / "iteration.py"), "--workload", workload,
        "--seed", str(seed), "--mode", "setup", "--out", ".", "--scale", scale,
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def iteration(workload, seed, mode, scale, timeout):
    """One iteration in a fresh process; returns its JSON result."""
    out_dir = ROOT / ".perfbench_runs" / f"{workload}-{seed}-{mode}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable, str(HERE / "iteration.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--out", str(out_dir), "--scale", scale,
    ]
    try:
        code, out, err = _communicate(cmd, timeout)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"problems": [f"iteration exited {code} without a result: {err.strip()[-2000:]}"]}
        if mode == "trace" and (out_dir / "trace.json").is_file():
            os.replace(out_dir / "trace.json", out_dir.parent / f"trace-{workload}.json")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _reference(workload, seed):
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["digests"][workload]
    key = workloads.order_seed(workload, seed)
    return table.get("any" if key is None else str(key))


def measure(workload, seed, seconds, trace, scale="full"):
    """Run iterations for `seconds`; returns the setup probes and iteration results."""
    if not (ROOT / "src" / "entroflow" / "__init__.py").is_file():
        raise BenchError(f"no entroflow sources under {ROOT / 'src'}")
    start = time.perf_counter()
    reference = _reference(workload, seed) if scale == "full" else None
    setups = []
    if not trace:
        setups = [setup_seconds(workload, seed, scale) for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    results, last = [], 0.0
    t_loop = time.perf_counter()
    while not results or time.perf_counter() - t_loop < seconds:
        left = DEADLINE_S - (time.perf_counter() - start)
        if results and left < 1.5 * last:
            break
        t_round = time.perf_counter()
        for mode in modes:
            left = DEADLINE_S - (time.perf_counter() - start)
            res = iteration(workload, seed, mode, scale, timeout=max(left, 1.0))
            res["mode"] = mode
            if scale == "full" and res.get("digest") not in (None, reference):
                res.setdefault("problems", []).append(
                    f"results digest {res['digest'][:16]} differs from the reference "
                    f"{str(reference)[:16]} recorded for this seed"
                )
            results.append(res)
        last = time.perf_counter() - t_round
    return {"setups": setups, "results": results}


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def summarize(run, trace, units):
    """The contract's result object, plus human-readable lines."""
    results = run["results"]
    failed = sum(1 for r in results if r.get("problems"))
    lines = []
    if trace:
        runs = [r for r in results if r["mode"] == "run"]
        traces = [r for r in results if r["mode"] == "trace"]
        layered = [t for t in traces if "layers" in t]
        samples = {name: [t["layers"][name] for t in layered] for name in units if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [
            t["wall_s"] - u["wall_s"] for u, t in zip(runs, traces) if "wall_s" in u and "wall_s" in t
        ]
        values = {name: statistics.median(v) if v else None for name, v in samples.items()}
        for t in layered:
            check = t["span_check"]
            lines.append(
                f"span check: {check['greedy_spans']} kernels.greedy spans, "
                f"{check['computed_rows']} kernel-computed rows in the records"
            )
    else:
        values = {
            "wall_s": _median(results, "wall_s"),
            "setup_s": statistics.median(run["setups"]),
            "cpu_s": _median(results, "cpu_s"),
            "peak_rss_mb": _median(results, "peak_rss_mb"),
            "rate_err": _median(results, "rate_err"),
        }
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<28} {shown:>14} {units[name]}")
    lines.append(f"{'fail_frac':<28} {failed / len(results):>14.6g} share ({failed} of {len(results)} runs failed)")
    for r in results:
        if "box_minus_disk" in r:
            shown = ", ".join(f"{d:+.4f}" for d in r["box_minus_disk"])
            lines.append(f"box minus disk rate per scale: {shown} (criterion 5 tolerance 0.1)")
            break
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in values.items() if value is not None
    }
    ok = failed == 0 and len(metrics) == len(values)
    result = {"correct": ok, "attempted": len(results), "failed": failed, "metrics": metrics}
    return result, lines


def units_for(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="entroflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = units_for(args.trace)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in run["results"]:
        for problem in r.get("problems", ()):
            print(f"FAILED ({r['mode']}): {problem}", file=sys.stderr)
    result, lines = summarize(run, bool(args.trace), units)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
