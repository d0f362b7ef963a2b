"""End-to-end acceptance checks for the shipped experiment configurations.

Each test covers one numbered criterion and prints a single PASS/FAIL
line.  Long runs happen once in module-scoped fixtures; the records they
persist double as the inputs for the integrity criterion at the end.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from entroflow import runner, systems
from entroflow.config import EstimateConfig
from entroflow.entropy import (
    SampleCloud,
    count_table_violations,
    dn_distance,
    exhaustive_max_separated,
    grid_cloud,
    max_separated,
    min_spanning_greedy,
    random_cloud,
)
from entroflow.foliation import center_nonexpansion_check
from entroflow.growth import disk_vs_box_comparison, unstable_rate_estimate
from entroflow.records import canonical_json, verify_record
from entroflow.systems import Roof, SuspensionFlow, TimeTMapHandle

from conftest import LOG_LAMBDA

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
WORKERS = min(4, os.cpu_count() or 1)

RECORDS = {}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def _run_config(name, out_root, workers=WORKERS):
    out = out_root / name
    t0 = time.perf_counter()
    record = runner.run(CONFIG_DIR / f"{name}.json", out_dir=str(out), workers=workers)
    elapsed = time.perf_counter() - t0
    RECORDS[name] = (record, out / record.id)
    return record, elapsed


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def cat_run(out_root):
    return _run_config("catmap_estimate", out_root)


@pytest.fixture(scope="module")
def doubling_run(out_root):
    return _run_config("doubling_estimate", out_root)


@pytest.fixture(scope="module")
def growth_run(out_root):
    return _run_config("growth_catmap", out_root)


@pytest.fixture(scope="module")
def continuity_run(out_root):
    return _run_config("continuity_center_shear", out_root)


@pytest.fixture(scope="module")
def foliation_run(out_root):
    return _run_config("foliation_check", out_root)


def test_criterion_1_cat_map_entropy_rate(cat_run):
    record, elapsed = cat_run
    cfg = record.config
    assert cfg["system"]["matrix"] == [[2, 1], [1, 1]]
    assert cfg["resolution"] == 256
    assert cfg["delta_schedule"] == [0.2, 0.1, 0.05]
    assert max(cfg["n_schedule"]) == 10

    rate = record.results["rate"]
    rel_err = abs(rate - LOG_LAMBDA) / LOG_LAMBDA
    ok = rel_err <= 0.10 and elapsed <= 60.0
    _report(1, ok, f"rate={rate:.6f} vs {LOG_LAMBDA:.6f} ({rel_err:+.2%}), {elapsed:.1f}s")
    assert rel_err <= 0.10
    assert elapsed <= 60.0


def test_criterion_2_circle_doubling_rate(doubling_run):
    record, elapsed = doubling_run
    cfg = record.config
    assert cfg["system"]["matrix"] == [[2]]
    assert cfg["resolution"] == 4096
    assert max(cfg["n_schedule"]) == 11

    rate = record.results["rate"]
    rel_err = abs(rate - math.log(2)) / math.log(2)
    ok = rel_err <= 0.05 and elapsed <= 10.0
    _report(2, ok, f"rate={rate:.6f} vs {math.log(2):.6f} ({rel_err:+.2%}), {elapsed:.1f}s")
    assert rel_err <= 0.05
    assert elapsed <= 10.0


# Packing counts of a time-t map jump exactly when an orbit crosses the
# roof, so each t gets a schedule whose crossing counts k(N) land on an
# affine stretch of the staircase (same base point and scale for all t).
T_SCHEDULES = {
    0.5: tuple(range(2, 21, 2)),
    0.8: (4, 5, 10),
    1.0: tuple(range(1, 11)),
    1.2: (3, 5, 8),
    2.0: tuple(range(1, 6)),
}


def test_criterion_3_flow_family_linearity(flow_const):
    t0 = time.perf_counter()
    rates = {}
    for t, schedule in sorted(T_SCHEDULES.items()):
        handle = TimeTMapHandle(flow_const, t)
        curve = unstable_rate_estimate(handle, (0.2, 0.3, 0.37), 0.02, schedule)
        rates[t] = curve.rate
    elapsed = time.perf_counter() - t0

    ts = np.array(sorted(rates))
    rs = np.array([rates[t] for t in ts])
    slope = float(np.dot(ts, rs) / np.dot(ts, ts))
    residual = float(np.max(np.abs(rs - slope * ts)))
    rel_err = abs(slope - LOG_LAMBDA) / LOG_LAMBDA

    ok = rel_err <= 0.10 and residual <= 0.1 and elapsed <= 120.0
    _report(
        3,
        ok,
        f"slope={slope:.4f} vs {LOG_LAMBDA:.4f} ({rel_err:+.2%}), "
        f"max residual={residual:.4f}, {elapsed:.1f}s",
    )
    assert rel_err <= 0.10
    assert residual <= 0.1
    assert elapsed <= 120.0
    spread = max(rs) - min(rs)
    assert spread > 0.5  # the rate genuinely varies with t


def test_criterion_4_growth_curve_exactness(growth_run):
    record, _ = growth_run
    table = record.results["growth_table"]
    assert [int(r[0]) for r in table] == list(range(4, 11))
    worst = 0.0
    for n, count, log_count, _ in table:
        err = abs(log_count / n - LOG_LAMBDA)
        worst = max(worst, err * n / 2.0)
        assert err <= 2.0 / n
    _report(4, True, f"max |log c(N)/N - log lambda| stays within {worst:.2f} of the 2/N budget")


def test_criterion_5_disk_vs_box_equality(time1):
    t0 = time.perf_counter()
    diffs = {}
    for delta in (0.05, 0.025):
        report = disk_vs_box_comparison(
            time1,
            np.array([0.2, 0.3, 0.37]),
            delta,
            n_schedule=(1, 2, 3),
            samples_per_axis=40,
            disk_samples=2500,
            tolerance=0.1,
        )
        diffs[delta] = report.difference
        assert report.passed, f"delta={delta}: difference {report.difference}"
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 120.0
    _report(
        5,
        ok,
        "box-minus-disk rate "
        + ", ".join(f"{d:+.4f} at delta={k}" for k, d in diffs.items())
        + f", {elapsed:.1f}s",
    )
    assert elapsed <= 120.0


def test_criterion_6_continuity_probe(continuity_run):
    record, elapsed = continuity_run
    entries = record.results["entries"]
    assert [e[0] for e in entries] == [0.0, 0.01, 0.02, 0.04]
    base = entries[0][1]
    dev = {eps: abs(rate - base) for eps, rate, _ in entries}
    for eps, d in dev.items():
        assert d <= 0.1, f"eps={eps}: deviation {d}"
    # deviations should shrink as the shear strength halves
    halving = [(0.04, 0.02), (0.02, 0.01), (0.01, 0.0)]
    holds = sum(dev[small] <= dev[big] + 1e-12 for big, small in halving)
    ok = holds >= 2 and elapsed <= 180.0
    _report(
        6,
        ok,
        f"max deviation {max(dev.values()):.2e}, halving holds on {holds}/3 pairs, {elapsed:.1f}s",
    )
    assert holds >= 2
    assert elapsed <= 180.0


def test_criterion_7_foliation_suite(foliation_run, flow_trig):
    record, _ = foliation_run
    hol = record.results["holonomy"]
    nonexp = record.results["nonexpansion"]
    density = record.results["density_rows"]

    assert hol["depth_gap"] <= 1e-7
    assert hol["equivariance_gap"] <= 1e-6
    assert nonexp["max_ratio_forward"] <= nonexp["roof_ratio_bound"]
    assert nonexp["horizon"] == 50

    trig_handle = TimeTMapHandle(flow_trig, 1.0)
    trig = center_nonexpansion_check(trig_handle, samples=60, horizon=50)
    trig_bound = flow_trig.roof.roof_max / flow_trig.roof.roof_min + 0.01
    assert trig.max_ratio_forward <= trig_bound

    radii = [row[0] for row in density]
    covers = [row[1] for row in density]
    assert radii == [1.0, 2.0, 4.0, 8.0]
    assert all(b <= a + 1e-12 for a, b in zip(covers, covers[1:]))
    assert covers[-1] <= 0.1

    _report(
        7,
        True,
        f"holonomy gaps {hol['depth_gap']:.1e}/{hol['equivariance_gap']:.1e}, "
        f"non-expansion {nonexp['max_ratio_forward']:.3f} (trig {trig.max_ratio_forward:.3f}), "
        f"covering radius at L=8: {covers[-1]:.4f}",
    )


def naive_max_separated(dmat, delta):
    best = 0
    for k in range(dmat.shape[0], best, -1):
        for subset in itertools.combinations(range(dmat.shape[0]), k):
            sub = dmat[np.ix_(subset, subset)]
            if np.all(sub[~np.eye(k, dtype=bool)] > delta):
                return k
    return 1


def test_criterion_8_estimator_properties(
    cat_run, doubling_run, growth_run, continuity_run, foliation_run, out_root
):
    details = []

    # every record persisted above passes verification from disk alone
    for name, (record, rdir) in sorted(RECORDS.items()):
        report = verify_record(rdir)
        assert report.passed, f"{name}: {report.failures}"
    details.append(f"{len(RECORDS)} records verify")

    # monotonicity plus the spanning/separation sandwich on persisted tables
    for name, sys_, resolution in (
        ("catmap_estimate", systems.cat_map(), 256),
        ("doubling_estimate", systems.circle_doubling(), 4096),
    ):
        record, _ = RECORDS[name]
        counts = [tuple(row) for row in record.results["counts"]]
        assert count_table_violations(counts) == []
        cloud = grid_cloud(sys_, resolution)
        deltas = sorted({d for _, d, _, _ in counts}, reverse=True)
        checked = 0
        for two_delta, delta in zip(deltas, deltas[1:]):
            if abs(two_delta - 2 * delta) > 1e-12:
                continue
            open_cells = [
                (int(n), int(c))
                for n, d, c, sat in counts
                if abs(d - delta) < 1e-12 and not sat
            ]
            for n, separated in open_cells[:3]:
                spanning = min_spanning_greedy(sys_, cloud, n, two_delta)
                assert spanning <= separated, (
                    f"{name}: spanning({two_delta}) = {spanning} exceeds "
                    f"separated({delta}) = {separated} at n={n}"
                )
                checked += 1
        assert checked > 0
        details.append(f"{name} sandwich x{checked}")

    # exhaustive search is the truth on small clouds; greedy stays in its bracket
    rng = np.random.default_rng(77)
    cat = systems.cat_map()
    for trial in range(4):
        pts = rng.random((12, 2))
        cloud = SampleCloud(cat.space, pts)
        for n, delta in ((1, 0.2), (3, 0.1)):
            dmat = np.array(
                [[dn_distance(cat, p, q, n) for q in cloud.points] for p in cloud.points]
            )
            truth = naive_max_separated(dmat, delta)
            assert exhaustive_max_separated(dmat, delta) == truth
            greedy = max_separated(cat, cloud, n, delta, order_seed=trial).count
            assert truth / 2 <= greedy <= truth
    details.append("exhaustive==brute force on 12-pt clouds")

    # worker count never changes the persisted bytes
    small = EstimateConfig(resolution=64, n_schedule=(1, 2, 3, 4, 5), delta_schedule=(0.2, 0.1))
    rec1 = runner.run(small, out_dir=str(out_root / "w1"), workers=1)
    rec2 = runner.run(small, out_dir=str(out_root / "w2"), workers=2)
    assert canonical_json(rec1.results) == canonical_json(rec2.results)
    csv1 = (out_root / "w1" / rec1.id / "counts.csv").read_bytes()
    csv2 = (out_root / "w2" / rec2.id / "counts.csv").read_bytes()
    assert csv1 == csv2
    details.append("workers 1 vs 2 byte-identical")

    _report(8, True, "; ".join(details))
