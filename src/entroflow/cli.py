"""Command line interface: run, show, verify, list."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import runner
from .growth import VertexBudgetExceeded
from .records import _SIDE_TABLES, load_record, verify_record


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy estimators and invariant-foliation probes "
        "for torus maps, suspension flows and their perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config or sweep grid")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", default="runs", help="output directory (default: runs)")
    run_p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the estimators (default: hardware parallelism)",
    )
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every RNG seed in the config",
    )
    show_p = sub.add_parser("show", help="print the tables and results of a record")
    show_p.add_argument("record", help="record directory or record.json path")
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


def _summary(record):
    seconds = record.timings.get("compute_seconds")
    # a hand-edited record may hold any JSON value here
    numeric = isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
    shown = f"{seconds:.2f}s" if numeric else "-"
    return f"{record.id[:12]}  {record.experiment:<16} {shown:>8}  {_headline(record)}"


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_table(header, rows):
    cells = [list(header), *([_cell(v) for v in row] for row in rows)]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
    for row in cells:
        print("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))


def show(record):
    """Print the summary line, side tables, sweep points and scalar results."""
    results = record.results
    print(_summary(record))
    for name, header, key in _SIDE_TABLES.get(record.experiment, ()):
        if results.get(key) is not None:
            print(name)
            _print_table(header, results[key])
    if record.experiment == "sweep":
        names = results["parameters"]
        print("points")
        _print_table(
            [*names, "rate", "stderr", "error"],
            [
                [*(p["params"][n] for n in names), p["rate"], p["stderr"], p["error"]]
                for p in results["points"]
            ],
        )
    for key, value in sorted(results.items()):
        if isinstance(value, dict):
            flat = {f"{key}.{sub}": v for sub, v in value.items()}
        else:
            flat = {key: value}
        for name, v in flat.items():
            if not isinstance(v, (list, dict)):
                print(f"  {name} = {_cell(v)}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            record = runner.run(
                args.config, args.out, workers=args.workers, seed=args.seed
            )
        # 2, as for a rejected config: exit code 1 is verify's failed record
        except (ValueError, FileNotFoundError, VertexBudgetExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        show(record)
        print(f"wrote {Path(args.out) / record.id}")
        return 0
    if args.command == "show":
        try:
            show(load_record(args.record))
        except (ValueError, FileNotFoundError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
            print(_summary(record))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
