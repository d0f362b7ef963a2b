"""Outside-in span tracing of entroflow's public layer functions.

`install` replaces selected functions and methods of the loaded entroflow
modules with wrappers that record one span per call: (run id, process id,
span id, parent span id, name, start ns, end ns, counters).  The program
itself is not edited; every module attribute that refers to a wrapped
function is rebound, so calls through `from x import f` names are traced
too.

Spans stay in memory per process.  A forked column worker inherits the
tracer with the parent's open span stack, so its first span links to the
`entropy.estimate` span that forked it; the worker writes its spans to a
spool file whenever it returns to the stack depth it was forked at, and
the parent merges the spool files when the run ends.

`layer_metrics` turns the merged spans into the per-layer numbers the
benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span recorder shared by one process and its forked children."""

    def __init__(self, run_id, spool_dir):
        self.run_id = run_id
        self.spool_dir = Path(spool_dir)
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._base_depth = 0
        self._seq = 0
        self._flushes = 0
        self.spans = []
        self.stack = []

    def _enter(self):
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked child: drop the parent's finished spans,
            # keep its open stack so this span links to the one that forked
            self._pid = pid
            self.spans = []
            self._base_depth = len(self.stack)
            self._seq = 0
        self._seq += 1
        span_id = f"{pid}.{self._seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def _exit(self, name, span_id, parent, start, counters):
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(
            (self.run_id, self._pid, span_id, parent, name, start, end, counters)
        )
        if self._pid != self.owner_pid and len(self.stack) == self._base_depth:
            self._flush_child()

    def _flush_child(self):
        self._flushes += 1
        path = self.spool_dir / f"{self.run_id}-{self._pid}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans), encoding="utf-8")
        os.replace(tmp, path)
        self.spans = []

    def wrap(self, name, fn, counters=None):
        """A wrapper around fn that records a span named `name` per call.

        counters(result, *args, **kwargs) returns a dict of work counts
        stored with the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._enter()
            extra = None
            try:
                out = fn(*args, **kwargs)
                if counters is not None:
                    extra = counters(out, *args, **kwargs)
                return out
            finally:
                tracer._exit(name, span_id, parent, start, extra)

        return traced

    def collect(self):
        """This process's spans plus every spool file the children wrote."""
        merged = list(self.spans)
        for path in sorted(self.spool_dir.glob(f"{self.run_id}-*.json")):
            merged.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))
        return merged


# --------------------------------------------------------------------------
# what gets wrapped


def _greedy_counters(out, prim, reps, wrap_mask, n, delta, order):
    return {
        "n": int(n),
        "delta": float(delta),
        "points": int(prim.shape[1]),
        "accepted": int(len(out)),
    }


def split_rows(rows):
    """(computed, skipped) rows of a count table of (n, delta, count, saturated).

    The estimator calls the greedy kernel for every row of a delta column
    up to and including its first saturated one; later rows are filled
    in without a call.
    """
    columns = {}
    for n, delta, _count, sat in rows:
        columns.setdefault(delta, []).append((n, sat))
    computed = 0
    for col in columns.values():
        col.sort()
        first = next((i for i, (_, sat) in enumerate(col) if sat), None)
        computed += len(col) if first is None else first + 1
    return computed, len(rows) - computed


def _estimate_counters(out, sys_, cloud, n_schedule, delta_schedule, order_seed=0, workers=1):
    return {
        "workers": max(1, min(int(workers), len(set(delta_schedule)))),
        "saturated_skipped": split_rows(out.counts)[1],
    }


def _step_counters(out, self_, pts):
    shape = np.shape(pts)
    return {"points": shape[0] if len(shape) == 2 else 1}


def _grow_counters(out, *args, **kwargs):
    return {"vertices": int(out.vertex_count)}


def _pack_counters(out, *args, **kwargs):
    return {"disks": int(out[0])}


def _write_counters(out, *args, **kwargs):
    return {"bytes": sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())}


def _targets(ef):
    """(owner, attribute, span name, counters) for every traced boundary."""
    k, e, s = ef._kernels, ef.entropy, ef.systems
    g, f, r, c = ef.growth, ef.foliation, ef.records, ef.config
    return [
        (k, "greedy_thinning", "kernels.greedy", _greedy_counters),
        (e, "entropy_estimate", "entropy.estimate", _estimate_counters),
        (e, "_column_counts", "entropy.column", None),
        (e.SampleCloud, "orbit_table", "entropy.tables", None),
        (e.SampleCloud, "rep_table", "entropy.tables", None),
        (s.SystemHandle, "orbit_table", "systems.orbit", None),
        (s.ToralMapHandle, "step", "systems.step", _step_counters),
        (s.TimeTMapHandle, "step", "systems.step", _step_counters),
        (s.PerturbedHandle, "step", "systems.step", _step_counters),
        (g, "grow_segment", "growth.grow", _grow_counters),
        (g, "count_disjoint_disks", "growth.pack", _pack_counters),
        (f.LeafSegment, "point_at", "foliation.point_at", None),
        (f, "unstable_segment", "foliation.segment", None),
        (f, "build_product_box", "foliation.box", None),
        (r, "write_record", "records.write", _write_counters),
        (r, "verify_record", "records.verify", None),
        (c, "parse_config", "config.parse", None),
    ]


def install(tracer):
    """Wrap every traced boundary of the already imported entroflow package."""
    import entroflow as ef

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "entroflow"]
    for owner, attr, name, counters in _targets(ef):
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, counters)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# --------------------------------------------------------------------------
# per-layer metrics from merged spans


def _union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    total, cur_a, cur_b = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_metrics(spans):
    """Per-layer totals; a span nested in one of the same name is not re-counted."""
    by_id = {s[2]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[3], []).append(s)

    def outermost(name):
        out = []
        for s in spans:
            if s[4] != name:
                continue
            p = by_id.get(s[3])
            while p is not None and p[4] != name:
                p = by_id.get(p[3])
            if p is None:
                out.append(s)
        return out

    def seconds(group):
        return sum(s[6] - s[5] for s in group) / 1e9

    def total(group, key):
        return sum((s[7] or {}).get(key, 0) for s in group)

    def descendants(span, name):
        found, todo = [], list(children.get(span[2], ()))
        while todo:
            s = todo.pop()
            if s[4] == name:
                found.append(s)
            todo.extend(children.get(s[2], ()))
        return found

    greedy = outermost("kernels.greedy")
    estimates = outermost("entropy.estimate")
    steps = outermost("systems.step")
    points = total(greedy, "points")
    accepted = total(greedy, "accepted")
    self_ns, idle_ns = 0, 0
    for est in estimates:
        start, end = est[5], est[6]
        kids = [(c[5], c[6]) for c in children.get(est[2], ())]
        self_ns += (end - start) - _union_length(kids, start, end)
        kernel_ns = sum(g[6] - g[5] for g in descendants(est, "kernels.greedy"))
        idle_ns += est[7]["workers"] * (end - start) - kernel_ns
    point_at = outermost("foliation.point_at")
    return {
        "kernels.greedy_s": seconds(greedy),
        "kernels.cells": len(greedy),
        "kernels.points": points,
        "kernels.accepted": accepted,
        "kernels.accept_ratio": accepted / points if points else 0.0,
        "kernels.cell_max_s": max((s[6] - s[5] for s in greedy), default=0) / 1e9,
        "entropy.estimate_s": seconds(estimates),
        "entropy.self_s": self_ns / 1e9,
        "entropy.tables_s": seconds(outermost("entropy.tables")),
        "entropy.saturated_skipped": total(estimates, "saturated_skipped"),
        "entropy.pool_idle_s": idle_ns / 1e9,
        "systems.orbit_s": seconds(outermost("systems.orbit")),
        "systems.step_calls": len(steps),
        "systems.step_points": total(steps, "points"),
        "growth.grow_s": seconds(outermost("growth.grow")),
        "growth.vertices": total(outermost("growth.grow"), "vertices"),
        "growth.pack_s": seconds(outermost("growth.pack")),
        "growth.disks": total(outermost("growth.pack"), "disks"),
        "foliation.point_at_calls": len(point_at),
        "foliation.point_at_s": seconds(point_at),
        "foliation.segment_s": seconds(outermost("foliation.segment")),
        "foliation.box_s": seconds(outermost("foliation.box")),
        "records.write_s": seconds(outermost("records.write")),
        "records.bytes": total(outermost("records.write"), "bytes"),
        "records.verify_s": seconds(outermost("records.verify")),
        "config.parse_s": seconds(outermost("config.parse")),
    }


def kernel_cells(spans):
    """Rows (n, delta, points, accepted, seconds) of every greedy call, sorted."""
    rows = [
        (s[7]["n"], s[7]["delta"], s[7]["points"], s[7]["accepted"], (s[6] - s[5]) / 1e9)
        for s in spans
        if s[4] == "kernels.greedy"
    ]
    return sorted(rows, key=lambda r: (-r[1], r[0]))
