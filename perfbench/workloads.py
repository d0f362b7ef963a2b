"""The benchmark's workloads: inputs from a seed, one run, and its checks.

Each workload drives entroflow's public API in one process (the estimate
pool forks up to `WORKERS` column workers) and persists what it computes
as records, so the record layer is timed and `records.verify_record`
can check every run.

- sep-catmap96: the `estimate` experiment on the cat map, 96^2 grid,
  n = 1..10, delta in {0.2, 0.1, 0.05}.  Same hot spot as the shipped
  256^2 config (the greedy kernel near first saturation) at a size that
  can be repeated.  Loads `_kernels` and the estimate fork pool; never
  touches `growth` or `foliation`.
- polyline-continuity: the shipped `continuity_center_shear` config.
  Makes no kernel call, so a `_kernels` change must leave it flat; it
  loads `growth`, `foliation` and `PerturbedHandle.step`.  Deterministic:
  it ignores the seed.
- diskbox-suspension: `growth.disk_vs_box_comparison` on the time-1 map
  of the constant-roof suspension with criterion 5's inputs.  The same
  kernel on 3-D mapping-torus clouds (three seam lifts per point, 64k
  box points, n <= 3), plus `foliation.build_product_box`.  The
  box-minus-disk rate difference is printed, not checked: it depends on
  the order seed and leaves criterion 5's tolerance 0.1 at some seeds
  (-0.24 at order seed 3), which is the estimator's behaviour at this
  commit, not a benchmark failure.

The seed sets `order_seed = seed % ORDER_SEEDS` on the two seeded
workloads, so every seed has a results digest recorded at the commit that
defined the benchmark (`reference.json`).
"""

from __future__ import annotations

import hashlib
import json
import math

#: log of the larger eigenvalue (3 + sqrt 5) / 2 of the cat map [[2, 1], [1, 1]]
LOG_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)
#: forked column workers for the estimate experiment (the machine has 2 cores)
WORKERS = 2
#: seeds map onto this many order seeds, each with a reference digest
ORDER_SEEDS = 16

CAT = [[2, 1], [1, 1]]
SUSPENSION = {"kind": "time_t", "matrix": CAT, "roof_constant": 1.0, "t": 1.0}

# copy of configs/continuity_center_shear.json, fixed here so that the
# workload cannot drift with the shipped file
CONTINUITY = {
    "experiment": "continuity",
    "system": SUSPENSION,
    "shape": "center_shear",
    "harmonics": [[1, 1.0, 0.0]],
    "eps_schedule": [0.0, 0.01, 0.02, 0.04],
    "x": [0.2, 0.3, 0.37],
    "delta": 0.02,
    "N_schedule": list(range(1, 11)),
}

# "tiny" inputs exist only for the self-test
SCALES = {
    "sep-catmap96": {
        "full": {"resolution": 96, "n_schedule": list(range(1, 11)), "delta_schedule": [0.2, 0.1, 0.05]},
        "tiny": {"resolution": 24, "n_schedule": [1, 2, 3, 4, 5], "delta_schedule": [0.2, 0.1]},
    },
    "polyline-continuity": {
        "full": {},
        "tiny": {"eps_schedule": [0.0, 0.01], "N_schedule": [1, 2, 3]},
    },
    "diskbox-suspension": {
        # criterion 5's inputs
        "full": {"deltas": [0.05, 0.025], "n_schedule": [1, 2, 3], "samples_per_axis": 40, "disk_samples": 2500},
        "tiny": {"deltas": [0.05], "n_schedule": [1, 2], "samples_per_axis": 8, "disk_samples": 200},
    },
}

SEEDED = {"sep-catmap96": True, "polyline-continuity": False, "diskbox-suspension": True}


def order_seed(workload, seed):
    """The order seed a benchmark seed selects; None for a deterministic workload."""
    return int(seed) % ORDER_SEEDS if SEEDED[workload] else None


def _digest(results_list):
    text = json.dumps(results_list, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(workload, seed, scale="full"):
    """Parse the workload's config and build its system handle."""
    from entroflow import config

    params = SCALES[workload][scale]
    if workload == "sep-catmap96":
        cfg = config.parse_config(
            {
                "experiment": "estimate",
                "system": {"kind": "toral", "matrix": CAT},
                "cloud": "grid",
                "resolution": params["resolution"],
                "n_schedule": params["n_schedule"],
                "delta_schedule": params["delta_schedule"],
                "order_seed": order_seed(workload, seed),
            }
        )
    elif workload == "polyline-continuity":
        cfg = config.parse_config({**CONTINUITY, **params})
    else:
        # the comparison has no experiment kind; the suspension and base
        # point are parsed as a growth config
        cfg = config.parse_config(
            {"experiment": "growth", "system": SUSPENSION, "x": [0.2, 0.3, 0.37], "delta": 0.05}
        )
    return cfg, config.system_from_config(cfg.system)


def _diskbox(handle, cfg, params, seed, out_dir):
    from entroflow import growth, records

    import numpy as np

    pairs, differences = [], []
    for delta in params["deltas"]:
        rep = growth.disk_vs_box_comparison(
            handle,
            np.asarray(cfg.x, dtype=float),
            delta,
            n_schedule=tuple(params["n_schedule"]),
            samples_per_axis=params["samples_per_axis"],
            disk_samples=params["disk_samples"],
            order_seed=seed,
        )
        differences.append(rep.difference)
        for cloud, est in (("disk", rep.disk_estimate), ("box", rep.box_estimate)):
            config_dict = {
                "experiment": "estimate",
                "workload": "diskbox-suspension",
                "cloud": cloud,
                "scale": delta,
                "samples_per_axis": params["samples_per_axis"],
                "disk_samples": params["disk_samples"],
                "n_schedule": list(est.n_schedule),
                "delta_schedule": list(est.delta_schedule),
                "order_seed": seed,
            }
            results = records.jsonable(
                {
                    "rate": est.rate,
                    "stderr": est.slope_stderr,
                    "window": list(est.fit_window),
                    "cloud_size": est.cloud_size,
                    "counts": [[n, d, c, int(s)] for n, d, c, s in est.counts],
                }
            )
            record = records.ExperimentRecord(
                id=records.config_hash(config_dict),
                config=config_dict,
                results=results,
                seeds={"order_seed": seed},
                timings={},
            )
            pairs.append((record, records.write_record(record, out_dir)))
    return pairs, differences


def execute(workload, prepared, seed, out_dir, scale="full"):
    """Run the workload, persist and verify its records.

    Returns a dict with the results digest, the headline rate error in
    nats, the count tables of every estimate, and a list of problems
    (empty when every check passed).
    """
    from entroflow import records, runner

    cfg, handle = prepared
    params = SCALES[workload][scale]
    oseed = order_seed(workload, seed)
    problems = []
    if workload == "diskbox-suspension":
        pairs, differences = _diskbox(handle, cfg, params, oseed, out_dir)
        # headline: the box-cloud rate against the closed form t log(lambda)
        box_rates = [r.results["rate"] for r, _ in pairs if r.config["cloud"] == "box"]
        rate_err = max(abs(rate - cfg.system.t * LOG_LAMBDA) for rate in box_rates)
        extra = {"box_minus_disk": differences}
    else:
        record = runner.run(cfg, out_dir=str(out_dir), workers=WORKERS)
        pairs = [(record, out_dir / record.id)]
        if workload == "sep-catmap96":
            rate_err = abs(record.results["rate"] - LOG_LAMBDA)
        else:
            eps0 = [row for row in record.results["entries"] if row[0] == 0.0]
            rate_err = abs(eps0[0][1] - cfg.system.t * LOG_LAMBDA)
        extra = {}
    for record, rdir in pairs:
        report = records.verify_record(rdir)
        if not report.passed:
            problems.extend(report.failures)
    if not math.isfinite(rate_err):
        problems.append(f"rate error {rate_err} is not finite")
    return {
        "digest": _digest([r.results for r, _ in pairs]),
        "rate_err": rate_err,
        "tables": [r.results["counts"] for r, _ in pairs if "counts" in r.results],
        "problems": problems,
        **extra,
    }
