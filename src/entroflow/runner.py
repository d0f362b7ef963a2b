"""Experiment dispatch: assemble systems, run estimators, persist records.

Every runner returns a JSON-serializable results payload plus the seeds
it consumed; run() and sweep() wrap them into hashed, replayable
records on disk.  Continuity members run one per forked worker, each
on one core; estimates fork their delta columns; sweep points run one
after another, each with every worker.  Every run is deterministic, so
results are byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import foliation, growth, systems
from .config import (
    GrowthConfig,
    SweepConfig,
    apply_grid_point,
    grid_points,
    override_seeds,
    parse_config,
    serialize_config,
    system_from_config,
)
from .entropy import _fork_map, entropy_estimate, grid_cloud, random_cloud
from .records import (
    ExperimentRecord,
    config_hash,
    jsonable,
    write_csv,
    write_record,
)


def load_config_file(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return parse_config(data)


def _run_estimate(cfg, workers):
    handle = system_from_config(cfg.system)
    if cfg.cloud == "grid":
        cloud = grid_cloud(handle, cfg.resolution)
    elif cfg.cloud == "random":
        cloud = random_cloud(handle, cfg.count, cfg.cloud_seed)
    else:
        raise ValueError(f"unknown cloud kind {cfg.cloud!r}")
    est = entropy_estimate(
        handle,
        cloud,
        list(cfg.n_schedule),
        list(cfg.delta_schedule),
        cfg.order_seed,
        workers=workers,
    )
    results = {
        "rate": est.rate,
        "stderr": est.slope_stderr,
        "window": list(est.fit_window),
        "n_schedule": list(est.n_schedule),
        "delta_schedule": list(est.delta_schedule),
        "seed": est.order_seed,
        "cloud_size": est.cloud_size,
        "counts": [[n, d, c, int(s)] for n, d, c, s in est.counts],
        "per_delta_slopes": {
            str(k): v
            for k, v in est.diagnostics.get("per_delta_slopes", {}).items()
        },
        "affine_window_found": bool(
            est.diagnostics.get("affine_window_found", True)
        ),
    }
    return results, {"order_seed": cfg.order_seed, "cloud_seed": cfg.cloud_seed}


def _run_growth(cfg, workers):
    handle = system_from_config(cfg.system)
    curve = growth.unstable_rate_estimate(
        handle,
        np.asarray(cfg.x, dtype=float),
        cfg.delta,
        list(cfg.N_schedule),
        spacing=cfg.spacing if cfg.spacing else None,
        vertex_budget=cfg.vertex_budget,
    )
    results = {
        "rate": curve.rate,
        "rate_stderr": curve.rate_stderr,
        "delta": curve.delta,
        "x": list(curve.base_point),
        "N_schedule": list(cfg.N_schedule),
        "growth_table": [list(row) for row in curve.table()],
        "center_arcs": [arc.tolist() for arc in curve.center_arcs],
    }
    return results, {}


def _run_continuity(cfg, workers):
    """A sweep over epsilon of one perturbed growth config, one member
    per worker; the modulus is the largest rate jump between consecutive
    members."""
    if cfg.system.kind != "time_t":
        raise ValueError("reference must be a time-t map of a suspension flow")
    if not cfg.eps_schedule:
        raise ValueError("eps_schedule must be nonempty")
    system = replace(
        cfg.system,
        kind="perturbed",
        shape=cfg.shape,
        harmonics=cfg.harmonics,
        direction=cfg.direction,
    )
    base = GrowthConfig(system=system, x=cfg.x, delta=cfg.delta, N_schedule=cfg.N_schedule)
    members = [apply_grid_point(base, {"epsilon": e}) for e in cfg.eps_schedule]

    def member(c):
        # only what the record reads goes back, not the center arcs
        results = run_config(c, 1)[0]
        return {k: results[k] for k in ("rate", "rate_stderr", "growth_table")}

    results = _fork_map(member, members, workers)
    rates = [r["rate"] for r in results]
    return {
        "entries": [
            [m.system.epsilon, r["rate"], r["rate_stderr"]]
            for m, r in zip(members, results)
        ],
        "modulus": max((abs(b - a) for a, b in zip(rates, rates[1:])), default=0.0),
        "member_counts": [[row[:2] for row in r["growth_table"]] for r in results],
    }, {}


def _run_foliation(cfg, workers):
    # checked before the holonomy and non-expansion work it would follow
    probe_resolution = systems._positive_whole(cfg.probe_resolution, "probe_resolution")
    handle = system_from_config(cfg.system)
    # a plain toral map has no reference flow to read
    foliation._require_center(handle)
    fl = handle.reference_flow
    x = np.asarray(cfg.x, dtype=float)
    seg = foliation.unstable_segment(handle, x, cfg.leaf_radius)
    u_pts = seg.point_at(np.linspace(0.0, seg.arclength, 7))
    y = fl.flow(x, cfg.holonomy_offset)
    out_d = foliation.center_holonomy(handle, x, y, u_pts, cfg.holonomy_depth)
    out_d1 = foliation.center_holonomy(handle, x, y, u_pts, cfg.holonomy_depth + 1)
    depth_gap = float(np.max(handle.distance(out_d, out_d1)))
    equi_gap = float(
        foliation.holonomy_equivariance_gap(handle, x, y, u_pts, cfg.holonomy_depth)
    )
    nonexp = foliation.center_nonexpansion_check(
        handle, cfg.nonexpansion_samples, cfg.horizon, cfg.rng_seed
    )
    roof = fl.roof
    probes = handle.space.grid(probe_resolution)
    density_rows = []
    for leaf_radius in cfg.leaf_radii:
        rep = foliation.density_check(
            handle, x, cfg.center_radius, float(leaf_radius), probes
        )
        density_rows.append(
            [float(leaf_radius), rep.covering_radius, rep.bound, int(rep.passed)]
        )
    results = {
        "holonomy": {
            "depth": cfg.holonomy_depth,
            "depth_gap": depth_gap,
            "equivariance_gap": equi_gap,
        },
        "nonexpansion": {
            "max_ratio_forward": nonexp.max_ratio_forward,
            "max_ratio_backward": nonexp.max_ratio_backward,
            "ratio_bound": nonexp.ratio_bound,
            "roof_ratio_bound": roof.roof_max / roof.roof_min + 0.01,
            "samples": nonexp.samples,
            "horizon": nonexp.horizon,
            "passed": nonexp.passed,
        },
        "density_rows": density_rows,
    }
    return results, {"rng_seed": cfg.rng_seed}


_RUNNERS = {
    "estimate": _run_estimate,
    "growth": _run_growth,
    "continuity": _run_continuity,
    "foliation-check": _run_foliation,
}


def run_config(cfg, workers=1):
    """Execute one non-sweep config; returns (results, seeds, timings)."""
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ValueError(f"config kind {cfg.experiment!r} is not directly runnable")
    t0 = time.perf_counter()
    results, seeds = runner(cfg, int(workers))
    timings = {"compute_seconds": time.perf_counter() - t0}
    return results, seeds, timings


def _make_record(cfg, results, seeds, timings):
    config_dict = serialize_config(cfg)
    return ExperimentRecord(
        id=config_hash(config_dict),
        config=config_dict,
        results=jsonable(results),
        seeds=jsonable(seeds),
        timings=jsonable(timings),
    )


def run(config_or_path, out_dir="runs", workers=None, seed=None):
    """Run a config (path or parsed) and persist the record; returns it.

    seed, when given, overrides every RNG seed in the config.  A sweep
    config runs the whole grid and returns the aggregate record.
    workers defaults to one per core and must be at least 1.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    workers = systems._positive_whole(workers, "workers")
    cfg = config_or_path
    if isinstance(cfg, (str, os.PathLike)):
        cfg = load_config_file(cfg)
    if seed is not None:
        cfg = override_seeds(cfg, seed)
    if isinstance(cfg, SweepConfig):
        master, _ = sweep(cfg, out_dir, workers=workers)
        return master
    results, seeds, timings = run_config(cfg, workers)
    record = _make_record(cfg, results, seeds, timings)
    write_record(record, out_dir)
    return record


def sweep(cfg, out_dir="runs", workers=1):
    """Run a parsed sweep grid; returns (aggregate record, point records).

    Every grid point gets its own hashed record; point failures are
    recorded as error strings without aborting the sweep, and the
    aggregate CSV is always written.
    """
    if not isinstance(cfg, SweepConfig):
        raise ValueError("sweep needs a config with experiment = 'sweep'")
    param_names = [name for name, _ in cfg.grid]
    t0 = time.perf_counter()
    point_records, point_rows = [], []
    for assignment in grid_points(cfg):
        entry = {"params": dict(assignment)}
        try:
            point_cfg = apply_grid_point(cfg.base, assignment)
            results, seeds, timings = run_config(point_cfg, workers)
            record = _make_record(point_cfg, results, seeds, timings)
            write_record(record, out_dir)
            point_records.append(record)
            entry.update(
                id=record.id,
                rate=results.get("rate"),
                stderr=results.get("stderr", results.get("rate_stderr")),
                error=None,
            )
        except Exception as exc:  # recorded per point, sweep continues
            entry.update(id=None, rate=None, stderr=None, error=f"{type(exc).__name__}: {exc}")
        point_rows.append(entry)
    master = _make_record(
        cfg,
        {"parameters": param_names, "points": point_rows},
        {},
        {"compute_seconds": time.perf_counter() - t0},
    )
    rdir = write_record(master, out_dir)
    nan = float("nan")
    aggregate = [
        [
            *(row["params"][name] for name in param_names),
            nan if row["rate"] is None else row["rate"],
            nan if row["stderr"] is None else row["stderr"],
        ]
        for row in point_rows
    ]
    write_csv(rdir / "aggregate.csv", [*param_names, "rate", "stderr"], aggregate)
    return master, point_records
