import hashlib
import json
import math
import os
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entroflow import cli, runner
from entroflow.config import (
    ContinuityConfig,
    EstimateConfig,
    FoliationCheckConfig,
    GrowthConfig,
    SweepConfig,
    SystemConfig,
    parse_config,
    serialize_config,
)
from entroflow.growth import fit_packing_counts
from entroflow.records import (
    _SIDE_TABLES,
    ExperimentRecord,
    canonical_json,
    config_hash,
    jsonable,
    load_record,
    read_csv,
    verify_record,
    write_csv,
    write_record,
)

SMALL_ESTIMATE = EstimateConfig(
    resolution=48, n_schedule=(1, 2, 3, 4), delta_schedule=(0.2, 0.1)
)
SMALL_GROWTH = GrowthConfig(delta=0.05, N_schedule=(1, 2, 3, 4, 5, 6))
SMALL_CONTINUITY = ContinuityConfig(eps_schedule=(0.0, 0.02), N_schedule=(1, 2, 3, 4))


def run_small(cfg, out_dir, **kw):
    return runner.run(cfg, out_dir=str(out_dir), **kw)


def test_config_hash_is_sha256_of_canonical_json():
    payload = serialize_config(EstimateConfig())
    expect = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    assert config_hash(payload) == expect
    assert (
        config_hash(payload)
        == "6899ba1e776729163dc911bf6049c8b3c15cd6fa2065c7c8b77652c4b4353bd3"
    )
    # key order cannot change the hash
    shuffled = dict(reversed(list(payload.items())))
    assert config_hash(shuffled) == config_hash(payload)


def test_jsonable_flattens_numpy_and_tuples():
    out = jsonable({"a": np.arange(3), "b": (np.float64(0.5), True)})
    assert out == {"a": [0, 1, 2], "b": [0.5, True]}
    assert type(out["b"][0]) is float
    json.dumps(out)


def test_csv_round_trip_preserves_float_text(tmp_path):
    header = ["n", "value", "flag", "label"]
    rows = [[1, 0.1, True, "alpha"], [2, 1 / 3, False, "beta"]]
    path = tmp_path / "table.csv"
    write_csv(path, header, rows)
    text = path.read_text()
    assert repr(1 / 3) in text
    assert "\r" not in text
    got_header, got_rows = read_csv(path)
    assert got_header == header
    assert got_rows[0] == ["1", repr(0.1), "1", "alpha"]
    assert not list(tmp_path.glob("*tmp*"))


def test_load_record_rejects_missing_fields(tmp_path):
    rec = ExperimentRecord(
        id=config_hash(serialize_config(SMALL_ESTIMATE)),
        config=serialize_config(SMALL_ESTIMATE),
        results={},
        seeds={},
        timings={},
    )
    rdir = write_record(rec, tmp_path)
    data = json.loads((rdir / "record.json").read_text())
    del data["seeds"]
    (rdir / "record.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match="seeds"):
        load_record(rdir)


@pytest.mark.parametrize(
    "payload, field",
    [
        ("5", "record is not a JSON object"),
        ("[]", "record is not a JSON object"),
        ({"config": []}, "'config'"),
        ({"results": []}, "'results'"),
        ({"seeds": 1}, "'seeds'"),
        ({"timings": "0.1"}, "'timings'"),
        ({"id": 5}, "record field 'id' is not a string"),
    ],
    ids=["number", "list", "config", "results", "seeds", "timings", "id"],
)
def test_load_record_rejects_fields_that_are_not_objects(tmp_path, payload, field):
    if isinstance(payload, dict):
        base = {"id": "0", "config": {}, "results": {}, "seeds": {}, "timings": {}, "version": "1"}
        payload = json.dumps({**base, **payload})
    path = tmp_path / "record.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match=field):
        load_record(path)


def test_cli_reports_a_record_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(write_config(tmp_path, SMALL_GROWTH)), "--out", str(out)])
    good = next(out.iterdir()).name
    capsys.readouterr()
    (out / "0bad").mkdir()
    (out / "0bad" / "record.json").write_text("[]")
    for command in ("verify", "show"):
        assert cli.main([command, str(out / "0bad")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not a JSON object" in captured.err
    # the listing names the bad record and goes on to the next one
    assert cli.main(["list", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0bad  (unreadable: record is not a JSON object)"
    assert lines[1].startswith(f"{good[:12]}  growth")


def test_cli_reports_a_record_whose_id_is_not_a_string(tmp_path, capsys):
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(write_config(tmp_path, SMALL_GROWTH)), "--out", str(out)])
    good = next(out.iterdir()).name
    capsys.readouterr()
    data = json.loads((out / good / "record.json").read_text())
    (out / "0bad").mkdir()
    (out / "0bad" / "record.json").write_text(json.dumps({**data, "id": 5}))
    for command in ("verify", "show"):
        assert cli.main([command, str(out / "0bad")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: record field 'id' is not a string\n"
    assert cli.main(["list", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0bad  (unreadable: record field 'id' is not a string)"
    assert lines[1].startswith(f"{good[:12]}  growth")


@pytest.mark.parametrize(
    "seconds, shown",
    [("x", "-"), (True, "-"), ([1.5], "-"), (None, "-"), (3, "3.00s"), (0.125, "0.12s")],
    ids=["string", "bool", "list", "null", "int", "float"],
)
def test_cli_list_shows_a_dash_for_compute_seconds_that_are_not_a_number(
    tmp_path, capsys, seconds, shown
):
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(write_config(tmp_path, SMALL_GROWTH)), "--out", str(out)])
    rdir = next(out.iterdir())
    capsys.readouterr()
    data = json.loads((rdir / "record.json").read_text())
    data["timings"]["compute_seconds"] = seconds
    (rdir / "record.json").write_text(json.dumps(data))
    assert cli.main(["list", "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.split()[:3] == [rdir.name[:12], "growth", shown]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_record_files_take_their_mode_from_the_umask(tmp_path, umask):
    rec = ExperimentRecord(
        id=config_hash(serialize_config(SMALL_ESTIMATE)),
        config=serialize_config(SMALL_ESTIMATE),
        results={"counts": [[1, 0.2, 1, 0]]},
        seeds={},
        timings={},
    )
    old = os.umask(umask)
    try:
        rdir = write_record(rec, tmp_path)
    finally:
        os.umask(old)
    names = sorted(p.name for p in rdir.iterdir())
    assert names == ["counts.csv", "record.json"]
    for name in names:
        assert stat.S_IMODE((rdir / name).stat().st_mode) == 0o666 & ~umask, name


@pytest.fixture(scope="module")
def estimate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("est")
    record = run_small(SMALL_ESTIMATE, out, workers=1)
    return record, out / record.id


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gro")
    record = run_small(SMALL_GROWTH, out, workers=1)
    return record, out / record.id


def test_persisted_estimate_verifies(estimate_run):
    record, rdir = estimate_run
    report = verify_record(rdir)
    assert report.passed, report.failures
    assert report.record_id == record.id
    assert "PASS" in report.summary()


def test_verify_catches_id_mismatch(estimate_run, tmp_path):
    record, rdir = estimate_run
    data = json.loads((rdir / "record.json").read_text())
    data["id"] = "0" * 64
    clone = tmp_path / "clone"
    clone.mkdir()
    (clone / "record.json").write_text(json.dumps(data))
    (clone / "counts.csv").write_bytes((rdir / "counts.csv").read_bytes())
    report = verify_record(clone)
    assert not report.passed
    assert any("config hash" in f for f in report.failures)
    assert "FAIL" in report.summary()


def test_verify_catches_csv_tampering(estimate_run, tmp_path):
    record, rdir = estimate_run
    clone = tmp_path / "clone"
    clone.mkdir()
    (clone / "record.json").write_bytes((rdir / "record.json").read_bytes())
    header, rows = read_csv(rdir / "counts.csv")
    rows[2][2] = "1"
    write_csv(clone / "counts.csv", header, rows)
    report = verify_record(clone)
    assert not report.passed
    assert any("counts.csv" in f and "count" in f for f in report.failures)


def test_verify_catches_count_table_violation(estimate_run, tmp_path):
    record, rdir = estimate_run
    data = json.loads((rdir / "record.json").read_text())
    # forge a count drop inside the JSON payload and its CSV twin
    counts = data["results"]["counts"]
    counts[1][2] = 1
    clone = tmp_path / "clone"
    clone.mkdir()
    (clone / "record.json").write_text(json.dumps(data))
    write_csv(
        clone / "counts.csv",
        ["n", "delta", "count", "saturated"],
        [[n, d, c, s] for n, d, c, s in counts],
    )
    report = verify_record(clone)
    assert not report.passed
    assert any("drops" in f and "n=" in f and "delta=" in f for f in report.failures)


def test_verify_catches_center_arc_crowding(growth_run, tmp_path):
    record, rdir = growth_run
    data = json.loads((rdir / "record.json").read_text())
    arcs = data["results"]["center_arcs"]
    k = max(range(len(arcs)), key=lambda i: len(arcs[i]))
    arcs[k][1] = arcs[k][0] + 0.01
    clone = tmp_path / "clone"
    clone.mkdir()
    (clone / "record.json").write_text(json.dumps(data))
    header, rows = read_csv(rdir / "growth.csv")
    write_csv(clone / "growth.csv", header, rows)
    report = verify_record(clone)
    assert not report.passed
    n, _, _, length = data["results"]["growth_table"][k]
    assert list(report.failures) == [
        f"center_arcs: centers at N={n} differ from the {len(arcs[k])} "
        f"that arclength {length!r} gives"
    ]


@pytest.fixture(scope="module")
def continuity_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("con")
    record = run_small(SMALL_CONTINUITY, out, workers=1)
    return record, out / record.id


def _clone_with_results(rdir, clone, edit):
    """Copy a record directory, applying `edit` to its results payload."""
    data = json.loads((rdir / "record.json").read_text())
    edit(data["results"])
    clone.mkdir()
    (clone / "record.json").write_text(json.dumps(data))
    for table in rdir.glob("*.csv"):
        (clone / table.name).write_bytes(table.read_bytes())
    return data


def _nudge(value):
    """The next float above value: a change only an exact replay can see."""
    return math.nextafter(float(value), math.inf)


@pytest.mark.parametrize("key", ["rate", "stderr", "window"])
def test_verify_replays_estimate_fit(estimate_run, tmp_path, key):
    record, rdir = estimate_run
    assert verify_record(rdir).passed

    def edit(results):
        if key == "window":
            results["window"][0] += 1
        else:
            results[key] = _nudge(results[key])

    _clone_with_results(rdir, tmp_path / "clone", edit)
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    assert any(f.startswith(f"results.{key}:") for f in report.failures), report.failures


def test_verify_reports_a_zero_count(estimate_run, tmp_path):
    record, rdir = estimate_run

    def edit(results):
        results["counts"][0][2] = 0

    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "counts.csv")
    write_csv(tmp_path / "clone" / "counts.csv", header, data["results"]["counts"])
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    assert any(f.startswith("counts: a count below 1") for f in report.failures)


@pytest.mark.parametrize("key", ["rate", "rate_stderr"])
def test_verify_replays_growth_fit(growth_run, tmp_path, key):
    record, rdir = growth_run
    assert verify_record(rdir).passed

    def edit(results):
        results[key] = _nudge(results[key])

    _clone_with_results(rdir, tmp_path / "clone", edit)
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    assert any(f.startswith(f"results.{key}:") for f in report.failures), report.failures


def test_verify_replays_continuity_rates(continuity_run, tmp_path):
    record, rdir = continuity_run
    assert verify_record(rdir).passed

    def edit(results):
        results["entries"][1][1] = _nudge(results["entries"][1][1])

    # the CSV twin carries the same edit, so only the replay can object
    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "continuity.csv")
    write_csv(tmp_path / "clone" / "continuity.csv", header, data["results"]["entries"])
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    assert [f for f in report.failures if f.startswith("entries:")], report.failures
    assert all("csv" not in f and "modulus" not in f for f in report.failures)


def test_verify_replays_growth_log_count(growth_run, tmp_path):
    record, rdir = growth_run

    def edit(results):
        row = results["growth_table"][-1]
        row[2] = _nudge(row[2])

    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "growth.csv")
    write_csv(tmp_path / "clone" / "growth.csv", header, data["results"]["growth_table"])
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    n = data["results"]["growth_table"][-1][0]
    assert list(report.failures) == [f"growth_table: log_count mismatch at N={n}"]


@pytest.mark.parametrize("change", [1, -1])
def test_verify_replays_growth_counts_from_arclengths(growth_run, tmp_path, change):
    # one count off by one, with its log and the rate fit made to agree:
    # only the count's own arclength shows the change
    record, rdir = growth_run

    def edit(results):
        row = results["growth_table"][-1]
        row[1] += change
        row[2] = math.log(row[1])
        counts = [(r[0], r[1]) for r in results["growth_table"]]
        results["rate"], results["rate_stderr"] = fit_packing_counts(counts)

    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "growth.csv")
    write_csv(tmp_path / "clone" / "growth.csv", header, data["results"]["growth_table"])
    report = verify_record(tmp_path / "clone")
    n, count, _, length = data["results"]["growth_table"][-1]
    assert list(report.failures) == [
        f"growth_table: count at N={n} recorded as {count} "
        f"but arclength {length!r} gives {count - change}"
    ]


@pytest.mark.parametrize("change", ["negative arclength", "short center_arcs"])
def test_verify_reports_a_growth_table_it_cannot_replay(growth_run, tmp_path, change):
    record, rdir = growth_run

    def edit(results):
        if change == "negative arclength":
            results["growth_table"][0][3] = -1.0
        else:
            results["center_arcs"].pop()

    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "growth.csv")
    write_csv(tmp_path / "clone" / "growth.csv", header, data["results"]["growth_table"])
    report = verify_record(tmp_path / "clone")
    table = data["results"]["growth_table"]
    if change == "negative arclength":
        want = (
            f"growth_table: arclength at N={table[0][0]} replays no packing: "
            "arclength must be >= 0 and finite, got -1.0"
        )
    else:
        want = f"center_arcs: {len(table) - 1} rows but growth_table has {len(table)}"
    assert list(report.failures) == [want]


def test_verify_passes_a_zero_count_with_its_nan_log(growth_run, tmp_path):
    # an arclength below 2*delta packs no disk; its log count is nan
    record, rdir = growth_run

    def edit(results):
        results["growth_table"][0][1:] = [0, math.nan, results["delta"]]
        results["center_arcs"][0] = []
        counts = [(r[0], r[1]) for r in results["growth_table"]]
        results["rate"], results["rate_stderr"] = fit_packing_counts(counts)

    data = _clone_with_results(rdir, tmp_path / "clone", edit)
    header, _ = read_csv(rdir / "growth.csv")
    write_csv(tmp_path / "clone" / "growth.csv", header, data["results"]["growth_table"])
    report = verify_record(tmp_path / "clone")
    assert report.passed, report.failures


def test_verify_replays_continuity_modulus(continuity_run, tmp_path):
    record, rdir = continuity_run

    def edit(results):
        results["modulus"] = _nudge(results["modulus"])

    _clone_with_results(rdir, tmp_path / "clone", edit)
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    assert [f for f in report.failures if f.startswith("modulus:")], report.failures


def test_identity_system_estimate_rate_zero(tmp_path):
    cfg = EstimateConfig(
        system=SystemConfig(matrix=((1,),)),
        resolution=64,
        n_schedule=(1, 2, 3, 4),
        delta_schedule=(0.2, 0.1),
    )
    record = run_small(cfg, tmp_path, workers=1)
    assert record.results["rate"] == pytest.approx(0.0, abs=1e-12)
    counts = {(n, d): c for n, d, c, _ in record.results["counts"]}
    for (n, d), c in counts.items():
        assert c == counts[(1, d)]


def test_rerun_is_byte_identical_except_timings(tmp_path):
    a = run_small(SMALL_GROWTH, tmp_path / "a", workers=1)
    b = run_small(SMALL_GROWTH, tmp_path / "b", workers=1)
    assert a.id == b.id
    assert canonical_json(a.results) == canonical_json(b.results)
    assert a.seeds == b.seeds
    assert a.version == b.version
    csv_a = (tmp_path / "a" / a.id / "growth.csv").read_bytes()
    csv_b = (tmp_path / "b" / b.id / "growth.csv").read_bytes()
    assert csv_a == csv_b


def test_worker_count_does_not_change_results(tmp_path):
    a = run_small(SMALL_ESTIMATE, tmp_path / "w1", workers=1)
    b = run_small(SMALL_ESTIMATE, tmp_path / "w2", workers=2)
    assert canonical_json(a.results) == canonical_json(b.results)


def test_continuity_worker_count_does_not_change_files(tmp_path):
    a = run_small(SMALL_CONTINUITY, tmp_path / "w1", workers=1)
    b = run_small(SMALL_CONTINUITY, tmp_path / "w2", workers=2)
    assert a.id == b.id
    da, db = tmp_path / "w1" / a.id, tmp_path / "w2" / b.id
    ja = json.loads((da / "record.json").read_text())
    jb = json.loads((db / "record.json").read_text())
    ja.pop("timings")
    jb.pop("timings")
    assert ja == jb
    csvs = sorted(p.name for p in da.glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in db.glob("*.csv"))
    for name in csvs:
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_continuity_of_a_commuting_family_is_flat(tmp_path):
    # a center shear carries each unstable leaf rigidly onto an unstable
    # leaf, so every member packs the eps = 0 counts
    cfg = ContinuityConfig(eps_schedule=(0.0, 0.02), delta=0.05, N_schedule=(1, 2, 3, 4, 5))
    record = run_small(cfg, tmp_path, workers=1)
    assert record.results["modulus"] == 0.0
    for rows in record.results["member_counts"]:
        counts = [c for _, c in rows]
        assert counts == sorted(counts)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"eps_schedule": ()}, "eps_schedule must be nonempty"),
        ({"system": SystemConfig()}, "reference must be a time-t map of a suspension flow"),
        (
            {"system": SystemConfig(kind="perturbed")},
            "reference must be a time-t map of a suspension flow",
        ),
    ],
)
def test_continuity_rejects_an_empty_schedule_or_a_reference_other_than_time_t(
    tmp_path, change, message
):
    out = tmp_path / "runs"
    with pytest.raises(ValueError, match=message):
        run_small(replace(SMALL_CONTINUITY, **change), out, workers=1)
    assert not out.exists()


def test_continuity_members_equal_the_points_of_an_epsilon_sweep(tmp_path):
    cfg = SMALL_CONTINUITY
    record = run_small(cfg, tmp_path / "continuity", workers=2)
    system = replace(
        cfg.system,
        kind="perturbed",
        shape=cfg.shape,
        harmonics=cfg.harmonics,
        direction=cfg.direction,
    )
    base = GrowthConfig(system=system, x=cfg.x, delta=cfg.delta, N_schedule=cfg.N_schedule)
    _, points = runner.sweep(
        SweepConfig(base=base, grid=(("epsilon", cfg.eps_schedule),)),
        out_dir=str(tmp_path / "sweep"),
        workers=2,
    )
    results = record.results
    assert len(points) == len(results["entries"]) == len(cfg.eps_schedule)
    for (eps, rate, stderr), counts, point in zip(
        results["entries"], results["member_counts"], points, strict=True
    ):
        assert point.config["system"]["epsilon"] == eps
        assert (rate, stderr) == (point.results["rate"], point.results["rate_stderr"])
        assert counts == [row[:2] for row in point.results["growth_table"]]


def test_seed_override_changes_seeds_and_id(tmp_path):
    cfg = EstimateConfig(cloud="random", count=200, n_schedule=(1, 2, 3))
    base = run_small(cfg, tmp_path / "base", workers=1)
    seeded = run_small(cfg, tmp_path / "seeded", workers=1, seed=11)
    assert seeded.seeds == {"order_seed": 11, "cloud_seed": 11}
    assert seeded.id != base.id


def test_sweep_points_share_ids_with_direct_runs(tmp_path):
    sweep_cfg = SweepConfig(base=SMALL_GROWTH, grid=(("n", (4,)),))
    master, points = runner.sweep(sweep_cfg, out_dir=str(tmp_path))
    assert len(points) == 1
    direct = run_small(
        GrowthConfig(delta=0.05, N_schedule=(1, 2, 3, 4)), tmp_path / "direct"
    )
    assert points[0].id == direct.id
    assert master.results["points"][0]["error"] is None
    assert verify_record(tmp_path / master.id).passed


def test_sweep_records_point_failures_and_aggregate(tmp_path):
    sweep_cfg = SweepConfig(base=SMALL_GROWTH, grid=(("delta", (0.05, -1.0)),))
    master, points = runner.sweep(sweep_cfg, out_dir=str(tmp_path))
    rows = master.results["points"]
    assert len(rows) == 2 and len(points) == 1
    assert rows[0]["error"] is None
    assert "delta" in rows[1]["error"]
    header, agg = read_csv(tmp_path / master.id / "aggregate.csv")
    assert header == ["delta", "rate", "stderr"]
    assert math.isnan(float(agg[1][1]))
    report = verify_record(tmp_path / master.id)
    assert report.passed, report.failures


def test_sweep_rejects_non_sweep_config(tmp_path):
    with pytest.raises(ValueError, match="sweep"):
        runner.sweep(SMALL_ESTIMATE, out_dir=str(tmp_path))


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(serialize_config(cfg)))
    return path


def test_cli_run_verify_list_roundtrip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_GROWTH)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    run_line = capsys.readouterr().out
    assert "rate=" in run_line

    record_id = next(out.iterdir()).name
    assert cli.main(["verify", str(out / record_id)]) == 0
    assert "PASS" in capsys.readouterr().out

    assert cli.main(["list", "--out", str(out)]) == 0
    listing = capsys.readouterr().out
    assert record_id[:12] in listing and "growth" in listing
    record_json = out / record_id / "record.json"
    seconds = json.loads(record_json.read_text())["timings"]["compute_seconds"]
    assert f" {seconds:.2f}s  rate=" in listing

    # a record without the timing field shows a dash in its place
    data = json.loads(record_json.read_text())
    data["timings"] = {}
    record_json.write_text(json.dumps(data))
    assert cli.main(["list", "--out", str(out)]) == 0
    assert "       -  rate=" in capsys.readouterr().out


def test_cli_verify_reports_failure(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_GROWTH)
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    rdir = next(out.iterdir())
    data = json.loads((rdir / "record.json").read_text())
    data["config"]["delta"] = 0.123
    (rdir / "record.json").write_text(json.dumps(data))
    assert cli.main(["verify", str(rdir)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bad_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "estimate", "surprise": 1}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "surprise" in err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_run_rejects_a_nan_radius(tmp_path, capsys):
    # json.loads reads NaN; the run used to fail inside numpy with "need at
    # least one array to concatenate"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"experiment": "estimate", "resolution": 8, "n_schedule": [1, 2], "delta_schedule": [NaN]}'
    )
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delta must be positive and finite, got nan" in err
    assert not out.exists() or not any(out.iterdir())


def test_cli_run_rejects_a_fractional_sweep_horizon(tmp_path, capsys):
    # n = 2.5 ran N = 1..2 under a record that said 2.5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"experiment": "sweep", "base": {"experiment": "growth"}, "grid": {"n": [2.5]}})
    )
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: sweep parameter 'n' must be a whole number, got 2.5\n"
    assert not out.exists()


def test_cli_run_reports_a_vertex_budget_overrun(tmp_path, capsys):
    # exit code 1 belongs to verify's failed record
    cfg = GrowthConfig(N_schedule=(1, 2, 3, 4, 5, 6), vertex_budget=100)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex budget 100 exceeded at growth step")
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_cli_run_rejects_a_worker_count_below_one(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path, SMALL_GROWTH)
    out = tmp_path / "runs"
    argv = ["run", "--config", str(cfg_path), "--out", str(out), f"--workers={workers}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        # a one-coordinate point on the cat map used to broadcast to a leaf
        # through (0.2, 0.2)
        (GrowthConfig(x=(0.2,)), "dimension 1 given to a system of dimension 2"),
        # a plain toral map has no center leaves to check
        (FoliationCheckConfig(system=SystemConfig()), "center operations"),
    ],
)
def test_cli_run_rejects_config_for_the_wrong_system(tmp_path, capsys, cfg, message):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("m", [-1, 1.5])
def test_cli_run_rejects_malformed_shear_harmonic(tmp_path, capsys, m):
    # m = -1 gives a negative Lipschitz constant, which passes every
    # epsilon; m = 1.5 breaks the period of sigma
    cfg = ContinuityConfig(
        harmonics=((m, 1.0, 0.0),), eps_schedule=(0.0, 0.02), N_schedule=(1, 2)
    )
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "center shear harmonic" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("change", ["drop", "extra"])
def test_verify_catches_member_counts_row_count(continuity_run, tmp_path, change):
    record, rdir = continuity_run

    def edit(results):
        rows = results["member_counts"]
        if change == "drop":
            rows.pop()
        else:
            rows.append(rows[-1])

    _clone_with_results(rdir, tmp_path / "clone", edit)
    report = verify_record(tmp_path / "clone")
    assert not report.passed
    n = len(record.results["entries"])
    m = n - 1 if change == "drop" else n + 1
    assert f"member_counts: {m} rows but entries has {n}" in report.failures


def test_verify_requires_member_counts(continuity_run, tmp_path):
    record, rdir = continuity_run
    _clone_with_results(rdir, tmp_path / "clone", lambda results: results.pop("member_counts"))
    report = verify_record(tmp_path / "clone")
    assert list(report.failures) == ["results.member_counts: missing"]


def test_verify_reports_sweep_point_without_rate_or_error(tmp_path, capsys):
    sweep_cfg = SweepConfig(base=SMALL_GROWTH, grid=(("n", (3,)),))
    master, _ = runner.sweep(sweep_cfg, out_dir=str(tmp_path))
    rdir = tmp_path / master.id
    data = json.loads((rdir / "record.json").read_text())
    data["results"]["points"][0] = {"params": {"n": 3}, "id": None}
    (rdir / "record.json").write_text(json.dumps(data))
    report = verify_record(rdir)
    assert list(report.failures) == ["points: {'n': 3} has neither rate nor error"]
    assert cli.main(["verify", str(rdir)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _shown_rows(out):
    return [line.split() for line in out.splitlines()]


def _assert_tables_shown(record, out):
    shown = _shown_rows(out)
    for name, header, key in _SIDE_TABLES[record.experiment]:
        assert name in out
        assert list(header) in shown
        for row in record.results[key]:
            assert [cli._cell(v) for v in row] in shown, (name, row)


def test_cli_show_prints_estimate_tables(estimate_run, capsys):
    record, rdir = estimate_run
    assert cli.main(["show", str(rdir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith(f"{record.id[:12]}  estimate")
    _assert_tables_shown(record, out)
    assert f"  rate = {cli._cell(record.results['rate'])}" in out


def test_cli_show_prints_foliation_tables_and_nested_results(tmp_path, capsys):
    cfg = FoliationCheckConfig(
        nonexpansion_samples=10, horizon=10, leaf_radii=(1.0, 2.0), probe_resolution=6
    )
    record = run_small(cfg, tmp_path, workers=1)
    assert cli.main(["show", str(tmp_path / record.id)]) == 0
    out = capsys.readouterr().out
    _assert_tables_shown(record, out)
    gap = record.results["holonomy"]["depth_gap"]
    assert f"  holonomy.depth_gap = {cli._cell(gap)}" in out
    assert "  nonexpansion.max_ratio_forward = " in out


def test_cli_run_and_show_print_sweep_points(tmp_path, capsys):
    grid = (("delta", (0.05, -1.0)), ("n", (3, 4)))
    sweep_cfg = SweepConfig(base=SMALL_GROWTH, grid=grid)
    out_dir = tmp_path / "runs"
    path = write_config(tmp_path, sweep_cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    run_out = capsys.readouterr().out
    master_id = run_out.splitlines()[-1].rsplit("/", 1)[-1]
    assert cli.main(["show", str(out_dir / master_id)]) == 0
    show_out = capsys.readouterr().out
    assert run_out.startswith(show_out)
    points = load_record(out_dir / master_id).results["points"]
    shown = _shown_rows(show_out)
    assert ["delta", "n", "rate", "stderr", "error"] in shown
    for p in points[:2]:
        row = [p["params"]["delta"], p["params"]["n"], p["rate"], p["stderr"], "-"]
        assert [cli._cell(v) for v in row] in shown
    for p in points[2:]:
        assert p["rate"] is None and p["error"] in show_out


def test_cli_show_missing_record_exits_two(tmp_path, capsys):
    assert cli.main(["show", str(tmp_path / "nowhere")]) == 2
    assert capsys.readouterr().err.startswith("error:")
