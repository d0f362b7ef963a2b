"""Command line interface: run, sweep, verify, list."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import runner
from .records import load_record, verify_record


def _add_run_flags(parser):
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="runs", help="output directory (default: runs)")
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the estimators (default: hardware parallelism)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every RNG seed in the config",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy estimators and invariant-foliation probes "
        "for torus maps, suspension flows and their perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    _add_run_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    _add_run_flags(sweep_p)
    verify_p = sub.add_parser("verify", help="re-check invariants of a stored record")
    verify_p.add_argument("record", help="record directory or record.json path")
    list_p = sub.add_parser("list", help="list stored records")
    list_p.add_argument("--out", default="runs", help="directory to scan")
    return parser


def _headline(record):
    results = record.results
    if "rate" in results:
        return f"rate={results['rate']:.6f}"
    if "modulus" in results:
        return f"modulus={results['modulus']:.6f}"
    if "points" in results:
        done = sum(1 for p in results["points"] if p.get("error") is None)
        return f"points={done}/{len(results['points'])}"
    if "holonomy" in results:
        return f"holonomy_gap={results['holonomy']['depth_gap']:.2e}"
    return ""


def _compute_time(record):
    seconds = record.timings.get("compute_seconds")
    return "-" if seconds is None else f"{seconds:.2f}s"


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            record = runner.run(
                args.config, args.out, workers=args.workers, seed=args.seed
            )
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{record.id}  {record.experiment}  {_headline(record)}")
        print(f"wrote {Path(args.out) / record.id}")
        return 0
    if args.command == "sweep":
        try:
            master, points = runner.sweep(
                args.config, args.out, workers=args.workers, seed=args.seed
            )
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for row in master.results["points"]:
            label = ", ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
            if row["error"] is None:
                print(f"  {label}: rate={row['rate']:.6f}")
            else:
                print(f"  {label}: FAILED ({row['error']})")
        print(f"{master.id}  sweep  {_headline(master)}")
        print(f"wrote {Path(args.out) / master.id} (+{len(points)} point records)")
        return 0
    if args.command == "verify":
        try:
            report = verify_record(args.record)
        except (ValueError, FileNotFoundError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        return 0 if report.passed else 1
    if args.command == "list":
        base = Path(args.out)
        found = sorted(base.glob("*/record.json")) if base.is_dir() else []
        if not found:
            print(f"no records under {base}")
            return 0
        for path in found:
            try:
                record = load_record(path)
            except ValueError as exc:
                print(f"{path.parent.name[:12]}  (unreadable: {exc})")
                continue
            print(
                f"{record.id[:12]}  {record.experiment:<16} "
                f"{_compute_time(record):>8}  {_headline(record)}"
            )
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
