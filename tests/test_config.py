import json
import re
from pathlib import Path

import pytest

from entroflow import systems
from entroflow.config import (
    ContinuityConfig,
    EstimateConfig,
    FoliationCheckConfig,
    GrowthConfig,
    SweepConfig,
    SystemConfig,
    apply_grid_point,
    grid_points,
    override_seeds,
    parse_config,
    serialize_config,
    system_from_config,
)
from entroflow.records import config_hash

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_round_trip(path):
    data = json.loads(path.read_text())
    cfg = parse_config(data)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


# the record id of each shipped config: a change to parsing or to the
# canonical dict that moved one would orphan every record stored under it
SHIPPED_IDS = {
    "catmap_estimate": "3de949e72bd7db73a793a1df30e3d2fe8651595ed8c6850a07258d4fa8090121",
    "continuity_center_shear": "9446c4ff4437bb55637e557b00acad4a1b0089baf7ff20c4851696577e878f13",
    "doubling_estimate": "eae114338dc156ac03d71e26af911ddacf4d9c29f2cb2f2db43706f6edae7892",
    "flow_family_sweep": "528b3b98766e3ddd498258551e8e7afa39929d04680d26ea54401c4aa9392d5d",
    "foliation_check": "b552e7ec7e74f98ec5f6efeec0b6ce9bd4a84274eb2580d2394e94df6c2491d3",
    "foliation_check_perturbed": "81baafd2111dfd65a5ab695f3042bd9b3cc0ec1f34e44a1f292dabf9748925be",
    "growth_catmap": "8e0a191919979ba765066c16ad11f1760f1484be308501337c82c95c7b94c6fc",
}


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_keep_their_record_ids(path):
    cfg = parse_config(json.loads(path.read_text()))
    assert config_hash(serialize_config(cfg)) == SHIPPED_IDS[path.stem]


def test_unknown_top_level_key_named():
    with pytest.raises(ValueError, match="'surprise'"):
        parse_config({"experiment": "estimate", "surprise": 1})


def test_unknown_nested_system_key_named():
    with pytest.raises(ValueError, match="system.'det'"):
        parse_config({"experiment": "growth", "system": {"kind": "toral", "det": 1}})


def test_unknown_experiment_kind_lists_known():
    with pytest.raises(ValueError, match="estimate.*sweep"):
        parse_config({"experiment": "quantum"})
    with pytest.raises(ValueError, match="JSON object"):
        parse_config([1, 2])


def test_sweep_validation():
    base = {"experiment": "growth"}
    with pytest.raises(ValueError, match="nonempty"):
        parse_config({"experiment": "sweep", "base": base, "grid": {}})
    with pytest.raises(ValueError, match="'roof'"):
        parse_config({"experiment": "sweep", "base": base, "grid": {"roof": [1.0]}})
    with pytest.raises(ValueError, match="'t' needs a nonempty value list"):
        parse_config({"experiment": "sweep", "base": base, "grid": {"t": []}})
    with pytest.raises(ValueError, match="estimate or growth"):
        parse_config(
            {
                "experiment": "sweep",
                "base": {"experiment": "continuity"},
                "grid": {"t": [1.0]},
            }
        )
    with pytest.raises(ValueError, match="'base'"):
        parse_config({"experiment": "sweep", "grid": {"t": [1.0]}})


@pytest.mark.parametrize(
    "kind, grid, error",
    [
        ("toral", {"t": [0.5, 1.0]}, "'t' needs a time_t or perturbed system, got kind 'toral'"),
        # parameters are checked in sorted order
        (
            "toral",
            {"t": [0.5, 1.0], "epsilon": [0.0, 0.1]},
            "'epsilon' needs a perturbed system, got kind 'toral'",
        ),
        ("time_t", {"epsilon": [0.0, 0.1]}, "'epsilon' needs a perturbed system, got kind 'time_t'"),
    ],
    ids=["t-on-toral", "epsilon-on-toral", "epsilon-on-time_t"],
)
@pytest.mark.parametrize("experiment", ["estimate", "growth"])
def test_sweep_over_a_parameter_the_base_does_not_read(experiment, kind, grid, error):
    base = {"experiment": experiment, "system": {"kind": kind}}
    with pytest.raises(ValueError) as info:
        parse_config({"experiment": "sweep", "base": base, "grid": grid})
    assert str(info.value) == f"sweep parameter {error}"
    # a perturbed base reads both
    base["system"]["kind"] = "perturbed"
    sweep = parse_config({"experiment": "sweep", "base": base, "grid": grid})
    assert [name for name, _ in sweep.grid] == sorted(grid)


@pytest.mark.parametrize(
    "name, value, error",
    [
        # n = 2.5 ran N = 1..2 under a record that said 2.5
        ("n", 2.5, "must be a whole number, got 2.5"),
        ("n", 0, "must be >= 1, got 0"),
        ("n", True, "must be a whole number, got True"),
        ("n", "3", "must be a whole number, got '3'"),
        # float() took a bool and a quoted number: t ran at 1.0 and 2.0
        ("t", True, "must be a number, got bool True"),
        ("t", "2", "must be a number, got str '2'"),
        # a null delta failed only at run time, as a point error
        ("delta", None, "must be a number, got NoneType None"),
        ("epsilon", [0.01], "must be a number, got list [0.01]"),
    ],
)
def test_a_sweep_value_that_would_be_coerced_is_rejected_at_parse(name, value, error):
    base = {"experiment": "growth", "system": {"kind": "perturbed"}}
    with pytest.raises(ValueError) as info:
        parse_config({"experiment": "sweep", "base": base, "grid": {name: [1, value]}})
    assert str(info.value) == f"sweep parameter {name!r} {error}"


@pytest.mark.parametrize(
    "literal, shown",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1" + "0" * 400, "1" + "0" * 400)],
    ids=["nan", "inf", "-inf", "1e400"],
)
@pytest.mark.parametrize("name", ["t", "epsilon", "delta"])
def test_a_sweep_value_that_is_not_finite_is_rejected_at_parse(name, literal, shown):
    # json.loads reads the first three as floats and the last as an int no
    # float holds; a NaN delta or such a t ran and was recorded as a failed
    # point of a run that exited 0
    kind = "perturbed" if name == "epsilon" else "time_t"
    text = f'{{"experiment": "sweep", "base": {{"experiment": "growth", "system": {{"kind": "{kind}"}}}}, '
    text += f'"grid": {{"{name}": [{literal}, 0.02]}}}}'
    with pytest.raises(ValueError) as info:
        parse_config(json.loads(text))
    assert str(info.value) == f"sweep parameter {name!r} must be finite, got {shown}"


def test_a_sweep_value_is_kept_as_written():
    data = {
        "experiment": "sweep",
        "base": {"experiment": "estimate", "system": {"kind": "perturbed"}},
        "grid": {"n": [3.0, 2], "t": [1, 0.5], "epsilon": [0, 0.01], "delta": [0.1]},
    }
    sweep = parse_config(data)
    assert serialize_config(sweep)["grid"] == data["grid"]
    assert [type(v) for v in dict(sweep.grid)["n"]] == [float, int]
    moved = apply_grid_point(sweep.base, grid_points(sweep)[0])
    assert moved.n_schedule == (1, 2, 3)
    assert moved.system.epsilon == 0.0 and moved.system.t == 1.0


def test_a_fractional_roof_wave_vector_in_a_config_is_rejected():
    # it ran as k = (1, 0) under a record that said 1.5
    cfg = parse_config(
        {"experiment": "growth", "system": {"kind": "time_t", "roof_terms": [[[1.5, 0], 0.2]]}}
    )
    with pytest.raises(ValueError, match="^roof wave vector component must be a whole number, got 1.5$"):
        system_from_config(cfg.system)


def test_grid_points_lexicographic_order():
    sweep = parse_config(
        {
            "experiment": "sweep",
            "base": {"experiment": "growth", "system": {"kind": "time_t"}},
            "grid": {"t": [0.5, 1.0], "delta": [0.02, 0.04]},
        }
    )
    assert [name for name, _ in sweep.grid] == ["delta", "t"]
    assert grid_points(sweep) == [
        {"delta": 0.02, "t": 0.5},
        {"delta": 0.02, "t": 1.0},
        {"delta": 0.04, "t": 0.5},
        {"delta": 0.04, "t": 1.0},
    ]


def test_apply_grid_point_targets_the_right_fields():
    growth = GrowthConfig(system=SystemConfig(kind="time_t"))
    moved = apply_grid_point(growth, {"t": 2.0, "delta": 0.04, "n": 3})
    assert moved.system.t == 2.0
    assert moved.delta == 0.04
    assert moved.N_schedule == (1, 2, 3)

    est = EstimateConfig(system=SystemConfig(kind="perturbed"))
    moved = apply_grid_point(est, {"epsilon": 0.01, "delta": 0.05, "n": 4})
    assert moved.system.epsilon == 0.01
    assert moved.delta_schedule == (0.05,)
    assert moved.n_schedule == (1, 2, 3, 4)

    with pytest.raises(ValueError, match="'roof'"):
        apply_grid_point(growth, {"roof": 1.0})


def test_override_seeds():
    est = override_seeds(EstimateConfig(), 7)
    assert est.cloud_seed == 7 and est.order_seed == 7
    fol = override_seeds(FoliationCheckConfig(), 9)
    assert fol.rng_seed == 9
    sweep = override_seeds(SweepConfig(base=EstimateConfig(), grid=(("t", (1.0,)),)), 5)
    assert sweep.base.order_seed == 5
    growth = override_seeds(GrowthConfig(), 3)
    assert growth == GrowthConfig()


@pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(kind="time_t", roof_constant=float("nan")),
        SystemConfig(kind="time_t", roof_terms=(((1, 0), float("nan")),)),
        SystemConfig(kind="time_t", t=float("nan")),
        SystemConfig(kind="perturbed", epsilon=float("nan")),
    ],
    ids=["roof_constant", "roof_amplitude", "t", "epsilon"],
)
def test_system_from_config_rejects_nan_parameters(cfg):
    # json.loads accepts NaN, and each of these used to build a system
    with pytest.raises(ValueError, match="nan"):
        system_from_config(cfg)


def test_system_from_config_kinds():
    toral = system_from_config(SystemConfig())
    assert isinstance(toral, systems.ToralMapHandle)
    assert toral.matrix.tolist() == [[2, 1], [1, 1]]

    timed = system_from_config(SystemConfig(kind="time_t", t=0.7))
    assert isinstance(timed, systems.TimeTMapHandle)
    assert timed.t == 0.7
    assert timed.suspension.roof.is_constant

    trig = system_from_config(
        SystemConfig(kind="time_t", roof_terms=(((1, 0), 0.2),))
    )
    assert trig.suspension.roof.roof_max == pytest.approx(1.2)

    pert = system_from_config(
        SystemConfig(kind="perturbed", epsilon=0.01, shape="center_shear")
    )
    assert isinstance(pert, systems.PerturbedHandle)
    assert pert.epsilon == 0.01
    assert isinstance(pert.shape, systems.CenterShear)

    base = system_from_config(
        SystemConfig(
            kind="perturbed",
            epsilon=0.005,
            shape="base_shear",
            direction=(0.0, 1.0),
            harmonics=((2, 0.5),),
        )
    )
    assert isinstance(base.shape, systems.BaseShear)
    assert base.shape.direction == (0.0, 1.0)

    with pytest.raises(ValueError, match="'conformal'"):
        system_from_config(SystemConfig(kind="conformal"))
    with pytest.raises(ValueError, match="'twist'"):
        system_from_config(SystemConfig(kind="perturbed", shape="twist"))


def test_continuity_config_defaults_match_time_t_reference():
    cfg = ContinuityConfig()
    assert cfg.system.kind == "time_t"
    assert cfg.eps_schedule == (0.0, 0.01, 0.02, 0.04)


def test_serialize_is_plain_json():
    sweep = parse_config(
        {
            "experiment": "sweep",
            "base": {"experiment": "estimate", "resolution": 32},
            "grid": {"n": [2, 4]},
        }
    )
    text = json.dumps(serialize_config(sweep), sort_keys=True)
    assert json.loads(text)["base"]["resolution"] == 32
    assert json.loads(text)["grid"] == {"n": [2, 4]}


# (experiment, key, JSON value, accepted); a nested key is "system.<name>"
TYPED_CASES = [
    ("estimate", "resolution", 32, True),
    ("estimate", "resolution", "32", False),
    ("estimate", "resolution", True, False),
    ("estimate", "resolution", 32.0, False),
    ("estimate", "order_seed", None, False),
    ("foliation-check", "holonomy_depth", 4.5, False),
    ("growth", "delta", 0.05, True),
    ("growth", "delta", 1, True),
    ("growth", "delta", "0.05", False),
    ("growth", "delta", False, False),
    ("growth", "delta", None, False),
    ("growth", "vertex_budget", None, True),
    ("growth", "vertex_budget", 1000, True),
    ("growth", "vertex_budget", "1000", False),
    ("growth", "vertex_budget", 1e6, False),
    ("growth", "system.kind", "toral", True),
    ("growth", "system.kind", 1, False),
    ("growth", "system.roof_constant", 1, True),
    ("growth", "system.roof_constant", True, False),
    ("growth", "system.matrix", [[2, 1], [1, 1]], True),
    ("growth", "system.matrix", "[[2, 1], [1, 1]]", False),
    ("growth", "N_schedule", [1, 2], True),
    ("growth", "N_schedule", 2, False),
    ("continuity", "shape", "center_shear", True),
    ("continuity", "shape", ["center_shear"], False),
    ("continuity", "eps_schedule", {"0": 0.0}, False),
]


@pytest.mark.parametrize("kind, key, value, accepted", TYPED_CASES)
def test_each_field_takes_its_json_type(kind, key, value, accepted):
    # a field whose JSON type does not fit its annotation fails at parse
    # time, by name; an int is a number, a bool is neither
    if key.startswith("system."):
        data = {"experiment": kind, "system": {key[len("system."):]: value}}
        named = "system." + repr(key[len("system."):])
    else:
        data = {"experiment": kind, key: value}
        named = repr(key)
    if accepted:
        cfg = parse_config(data)
        assert parse_config(serialize_config(cfg)) == cfg
    else:
        with pytest.raises(ValueError, match=f"config key {re.escape(named)} must be"):
            parse_config(data)
