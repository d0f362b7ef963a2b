"""Replayable experiment records.

A record is a JSON file plus CSV side tables in a directory named by
the config hash.  Writes are atomic (temp file, then rename), JSON is
UTF-8 with sorted keys, CSVs are comma separated with a header row and
LF line endings.  verify_record re-checks the persisted invariants
without re-running any dynamics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import count_table_violations, fit_count_table
from .growth import disk_center_arcs, fit_packing_counts

ARTIFACT_VERSION = "0.1.0"


def jsonable(value):
    """Recursively convert numpy containers and scalars to JSON types."""
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config_dict):
    """Content hash of a canonical config dict; the record id."""
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()


@dataclass
class ExperimentRecord:
    id: str
    config: dict
    results: dict
    seeds: dict
    timings: dict
    version: str = ARTIFACT_VERSION

    @property
    def experiment(self):
        return self.config.get("experiment", "?")


def _atomic_write_text(path, text):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """Comma separated, '.' decimal, header row, LF endings, atomic."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


_SIDE_TABLES = {
    "estimate": [("counts.csv", ("n", "delta", "count", "saturated"), "counts")],
    "growth": [("growth.csv", ("N", "count", "log_count", "arclength"), "growth_table")],
    "continuity": [("continuity.csv", ("epsilon", "rate", "stderr"), "entries")],
    "foliation-check": [
        ("density.csv", ("L", "covering_radius", "bound", "passed"), "density_rows")
    ],
}


def write_record(record, out_dir):
    """Persist a record and its CSV side tables; returns the directory."""
    rdir = Path(out_dir) / record.id
    rdir.mkdir(parents=True, exist_ok=True)
    for name, header, key in _SIDE_TABLES.get(record.experiment, ()):
        rows = record.results.get(key)
        if rows is not None:
            write_csv(rdir / name, header, rows)
    payload = {
        "id": record.id,
        "config": jsonable(record.config),
        "results": jsonable(record.results),
        "seeds": jsonable(record.seeds),
        "timings": jsonable(record.timings),
        "version": record.version,
    }
    _atomic_write_text(
        rdir / "record.json",
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=1) + "\n",
    )
    return rdir


def load_record(path):
    """Load a record from its directory or its record.json path."""
    path = Path(path)
    if path.is_dir():
        path = path / "record.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("record is not a JSON object")
    for key in ("id", "config", "results", "seeds", "timings", "version"):
        if key not in data:
            raise ValueError(f"record is missing the {key!r} field")
    for key in ("config", "results", "seeds", "timings"):
        if not isinstance(data[key], dict):
            raise ValueError(f"record field {key!r} is not a JSON object")
    if not isinstance(data["id"], str):
        raise ValueError("record field 'id' is not a string")
    return ExperimentRecord(
        id=data["id"],
        config=data["config"],
        results=data["results"],
        seeds=data["seeds"],
        timings=data["timings"],
        version=data["version"],
    )


@dataclass(frozen=True)
class VerifyReport:
    record_id: str
    experiment: str
    passed: bool
    failures: tuple = ()

    def summary(self):
        if self.passed:
            return f"PASS {self.record_id[:12]} ({self.experiment})"
        lines = [f"FAIL {self.record_id[:12]} ({self.experiment})"]
        lines.extend(f"  - {f}" for f in self.failures)
        return "\n".join(lines)


def _require(results, key, failures):
    if key not in results:
        failures.append(f"results.{key}: missing")
        return None
    return results[key]


def _replay(results, expected, source, failures):
    """Compare recorded fields with the values replayed from `source`.

    Floats survive the JSON round trip, so the comparison is exact.
    """
    for key, want in expected.items():
        got = _require(results, key, failures)
        if got is not None and got != want:
            failures.append(f"results.{key}: recorded {got!r} but {source} give {want!r}")


def _verify_estimate(results, failures):
    rows = _require(results, "counts", failures)
    if rows is None:
        return
    rows = [tuple(r) for r in rows]
    failures.extend(count_table_violations(rows))
    if any(r[2] < 1 for r in rows):
        failures.append("counts: a count below 1, which no nonempty cloud gives")
    elif rows:
        rate, stderr, window, _found = fit_count_table(rows)
        _replay(
            results,
            {"rate": rate, "stderr": stderr, "window": list(window)},
            "counts",
            failures,
        )
    size = results.get("cloud_size")
    if size is not None:
        for n, delta, count, sat in rows:
            if count > size:
                failures.append(
                    f"counts: count {count} exceeds cloud size {size} at (n={n}, delta={delta})"
                )
            if bool(sat) != (count >= size):
                failures.append(
                    f"counts: saturation flag inconsistent at (n={n}, delta={delta})"
                )


def _verify_growth(results, failures):
    table = _require(results, "growth_table", failures)
    delta = _require(results, "delta", failures)
    arcs = _require(results, "center_arcs", failures)
    if table is None:
        return
    counts = [(int(r[0]), int(r[1])) for r in table]
    rate, stderr = fit_packing_counts(counts)
    _replay(results, {"rate": rate, "rate_stderr": stderr}, "growth_table counts", failures)
    for (n0, c0), (n1, c1) in zip(counts, counts[1:]):
        if c1 < c0:
            failures.append(
                f"growth_table: count drops from {c0} to {c1} between N={n0} and N={n1}"
            )
    if delta is None or arcs is None:
        return
    if len(arcs) != len(table):
        failures.append(f"center_arcs: {len(arcs)} rows but growth_table has {len(table)}")
    # a packing is a function of the arclength alone; equal centers are
    # also 4*delta apart
    for (n, c), row, arc_row in zip(counts, table, arcs):
        if c > 0 and float(row[2]) != math.log(c):
            failures.append(f"growth_table: log_count mismatch at N={n}")
        try:
            want = disk_center_arcs(row[3], 2.0 * float(delta))
        except ValueError as exc:
            failures.append(f"growth_table: arclength at N={n} replays no packing: {exc}")
            continue
        if c != want.size:
            failures.append(
                f"growth_table: count at N={n} recorded as {c} "
                f"but arclength {row[3]!r} gives {want.size}"
            )
        if arc_row != want.tolist():
            failures.append(
                f"center_arcs: centers at N={n} differ from the {want.size} "
                f"that arclength {row[3]!r} gives"
            )


def _verify_continuity(results, failures):
    entries = _require(results, "entries", failures)
    modulus = _require(results, "modulus", failures)
    member_counts = _require(results, "member_counts", failures)
    if entries is None or modulus is None or member_counts is None:
        return
    if len(member_counts) != len(entries):
        failures.append(
            f"member_counts: {len(member_counts)} rows but entries has {len(entries)}"
        )
    # the modulus is replayed from the member fits, so a wrong entry rate
    # is reported once, against its counts
    rates = []
    for (eps, rate, stderr), rows in zip(entries, member_counts):
        cs = [int(r[1]) for r in rows]
        for a, b in zip(cs, cs[1:]):
            if b < a:
                failures.append(f"member_counts: count drops from {a} to {b} at epsilon={eps}")
        want = fit_packing_counts([(int(r[0]), int(r[1])) for r in rows])
        rates.append(want[0])
        if (rate, stderr) != want:
            failures.append(
                f"entries: (rate, stderr) at epsilon={eps} recorded as "
                f"{(rate, stderr)!r} but member_counts give {want!r}"
            )
    expect = max((abs(b - a) for a, b in zip(rates, rates[1:])), default=0.0)
    if expect != float(modulus):
        failures.append(f"modulus: recorded {modulus} but member_counts give {expect}")


def _verify_foliation(results, failures):
    rows = _require(results, "density_rows", failures)
    if rows is not None:
        pairs = [(r[0], float(r[1])) for r in rows]
        for (l0, c0), (l1, c1) in zip(pairs, pairs[1:]):
            if c1 > c0 + 1e-12:
                failures.append(
                    f"density_rows: covering radius rises from {c0} to {c1} "
                    f"between L={l0} and L={l1}"
                )
        for row in rows:
            if bool(row[3]) != (float(row[1]) <= float(row[2]) + 1e-12):
                failures.append(f"density_rows: passed flag inconsistent at L={row[0]}")
    ratios = results.get("nonexpansion")
    if ratios is not None:
        worst = max(float(ratios["max_ratio_forward"]), float(ratios["max_ratio_backward"]))
        if bool(ratios["passed"]) != (worst <= float(ratios["ratio_bound"])):
            failures.append("nonexpansion: passed flag inconsistent with ratios")


def _verify_side_tables(rdir, experiment, results, failures):
    """Check each CSV side table against the JSON results payload."""
    for name, header, key in _SIDE_TABLES.get(experiment, ()):
        rows = results.get(key)
        if rows is None:
            continue
        path = Path(rdir) / name
        if not path.is_file():
            failures.append(f"{name}: side table missing")
            continue
        got_header, got_rows = read_csv(path)
        if tuple(got_header) != tuple(header):
            failures.append(f"{name}: header {got_header!r} != {list(header)!r}")
            continue
        want_rows = [[_csv_cell(c) for c in row] for row in jsonable(rows)]
        if len(got_rows) != len(want_rows):
            failures.append(
                f"{name}: {len(got_rows)} rows on disk but "
                f"results.{key} has {len(want_rows)}"
            )
            continue
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            bad = [j for j in range(min(len(got), len(want))) if got[j] != want[j]]
            if len(got) != len(want) or bad:
                col = header[bad[0]] if bad else "?"
                failures.append(
                    f"{name}: row {i} column {col} disagrees with results.{key}"
                )
                break


def _verify_sweep(results, failures):
    points = _require(results, "points", failures)
    if points is None:
        return
    for pt in points:
        if pt.get("error") is None and pt.get("rate") is None:
            failures.append(f"points: {pt.get('params')} has neither rate nor error")


_VERIFIERS = {
    "estimate": _verify_estimate,
    "growth": _verify_growth,
    "continuity": _verify_continuity,
    "foliation-check": _verify_foliation,
    "sweep": _verify_sweep,
}


def verify_record(record_or_path):
    """Re-check invariants of a persisted record from its data alone."""
    record = record_or_path
    rdir = None
    if not isinstance(record, ExperimentRecord):
        path = Path(record_or_path)
        rdir = path if path.is_dir() else path.parent
        record = load_record(path)
    failures = []
    expected = config_hash(record.config)
    if record.id != expected:
        failures.append(f"id: {record.id[:12]} does not match the config hash")
    if not record.version:
        failures.append("version: missing")
    verifier = _VERIFIERS.get(record.experiment)
    if verifier is None:
        failures.append(f"config.experiment: unknown kind {record.experiment!r}")
    else:
        verifier(record.results, failures)
        if rdir is not None:
            _verify_side_tables(rdir, record.experiment, record.results, failures)
    return VerifyReport(
        record_id=record.id,
        experiment=record.experiment,
        passed=not failures,
        failures=tuple(failures),
    )
