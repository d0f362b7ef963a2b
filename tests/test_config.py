import json
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

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_round_trip(path):
    data = json.loads(path.read_text())
    cfg = parse_config(data)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


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
