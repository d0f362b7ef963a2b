"""Fast self-test of the benchmark on tiny inputs (about 15 s).

    python3 perfbench/selftest.py

For every workload it runs one tiny untraced and one tiny traced
iteration through the same code as perfbench/run.py and checks that:
- the result object has exactly the contract's keys, is correct, and
  names every metric of BENCHMARK.json with its unit, in the JSON and in
  the printed lines;
- the number of kernels.greedy spans equals the number of count-table
  rows the kernel computed (zero on polyline-continuity), so spans from
  forked column workers reach the trace;
- tracing does not change the results digest.
It also checks that the benchmark refuses to run, with a non-zero exit
and no result line, where the entroflow sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run


def check_workload(workload, failures):
    digests = []
    for trace in (False, True):
        units = run.units_for(trace)
        measured = run.measure(workload, 3, 0, trace, scale="tiny")
        result, lines = run.summarize(measured, trace, units)
        tag = f"{workload} trace={int(trace)}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"]:
            problems = [p for r in measured["results"] for p in r.get("problems", ())]
            failures.append(f"{tag}: not correct: {problems}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != units:
            failures.append(f"{tag}: metrics {got} != {units}")
        for name, unit in units.items():
            if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines):
                failures.append(f"{tag}: no printed line for {name} in {unit}")
        for r in measured["results"]:
            digests.append(r.get("digest"))
            if r["mode"] != "trace":
                continue
            check = r["span_check"]
            want_calls = workload != "polyline-continuity"
            if check["greedy_spans"] != check["computed_rows"] or (check["greedy_spans"] > 0) != want_calls:
                failures.append(f"{tag}: span check {check}")
    if len(set(digests)) != 1:
        failures.append(f"{workload}: digests differ between runs: {digests}")


def check_refuses_without_sources(failures):
    (run.ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.ROOT / ".perfbench_runs")
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sep-catmap96", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        failures.append(f"ran without sources: exit {proc.returncode}, output {proc.stdout!r}")


def main():
    failures = []
    for workload in run.WORKLOADS:
        check_workload(workload, failures)
    check_refuses_without_sources(failures)
    for f in failures:
        print("FAIL", f)
    print(json.dumps({"selftest": "fail" if failures else "pass", "failures": len(failures)}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
