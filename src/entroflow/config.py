"""Structured experiment configuration.

Configs are frozen dataclasses parsed from JSON objects.  Parsing
rejects unknown keys and names the offending key in the error;
serialization emits the canonical dict the record hash is computed
from.  Round trip law: parse_config(serialize_config(cfg)) == cfg.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import ClassVar

from . import systems
from .growth import DEFAULT_VERTEX_BUDGET


def _deep_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


def _deep_list(value):
    if isinstance(value, tuple):
        return [_deep_list(v) for v in value]
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Which dynamical system to assemble.

    kind selects the family: "toral" is the integer-matrix torus map,
    "time_t" the time-t map of a suspension over one, "perturbed" a
    sheared time-t map.  Roof terms are rows ((m1, m2), amplitude) of a
    trigonometric roof on top of the constant part.  harmonics and
    direction parameterize the shear shape for perturbed systems.
    """

    kind: str = "toral"
    matrix: tuple = ((2, 1), (1, 1))
    roof_constant: float = 1.0
    roof_terms: tuple = ()
    t: float = 1.0
    epsilon: float = 0.0
    shape: str = "center_shear"
    harmonics: tuple = ()
    direction: tuple = ()


@dataclass(frozen=True)
class EstimateConfig:
    """Separated-set entropy estimate on a sample cloud."""

    experiment: ClassVar[str] = "estimate"

    system: SystemConfig = SystemConfig()
    cloud: str = "grid"
    resolution: int = 64
    count: int = 1024
    cloud_seed: int = 0
    n_schedule: tuple = (1, 2, 3, 4, 5, 6)
    delta_schedule: tuple = (0.2, 0.1)
    order_seed: int = 0


@dataclass(frozen=True)
class GrowthConfig:
    """Unstable-disk growth curve and packing-count rate."""

    experiment: ClassVar[str] = "growth"

    system: SystemConfig = SystemConfig()
    x: tuple = (0.2, 0.3)
    delta: float = 0.02
    N_schedule: tuple = (4, 5, 6, 7, 8, 9, 10)
    spacing: float = 0.0
    vertex_budget: int | None = DEFAULT_VERTEX_BUDGET


@dataclass(frozen=True)
class ContinuityConfig:
    """Rate curve of a shear family grown from one base point.

    system describes the unperturbed reference (a time-t map); shape,
    harmonics and direction fix the shear whose strength runs through
    eps_schedule.
    """

    experiment: ClassVar[str] = "continuity"

    system: SystemConfig = SystemConfig(kind="time_t")
    shape: str = "center_shear"
    harmonics: tuple = ()
    direction: tuple = ()
    eps_schedule: tuple = (0.0, 0.01, 0.02, 0.04)
    x: tuple = (0.2, 0.3, 0.37)
    delta: float = 0.02
    N_schedule: tuple = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


@dataclass(frozen=True)
class FoliationCheckConfig:
    """Holonomy, center non-expansion and leaf density reports."""

    experiment: ClassVar[str] = "foliation-check"

    system: SystemConfig = SystemConfig(kind="time_t")
    x: tuple = (0.2, 0.3, 0.4)
    holonomy_offset: float = 0.3
    holonomy_depth: int = 4
    leaf_radius: float = 0.05
    nonexpansion_samples: int = 100
    horizon: int = 50
    rng_seed: int = 0
    center_radius: float = 1.0
    leaf_radii: tuple = (1.0, 2.0, 4.0, 8.0)
    probe_resolution: int = 12


@dataclass(frozen=True)
class SweepConfig:
    """Grid of runs derived from a base estimate or growth config.

    grid holds (parameter, values) rows; supported parameters are
    t (system time, on a time_t or perturbed base system), epsilon
    (shear strength, on a perturbed one), delta (scale) and n (schedule
    horizon, expanded to 1..n).  Points run in lexicographic
    order: parameters sorted by name, values in listed order.
    """

    experiment: ClassVar[str] = "sweep"

    base: object = None
    grid: tuple = ()


_EXPERIMENTS = {
    cls.experiment: cls
    for cls in (
        EstimateConfig,
        GrowthConfig,
        ContinuityConfig,
        FoliationCheckConfig,
        SweepConfig,
    )
}

_GRID_PARAMS = ("delta", "epsilon", "n", "t")
#: the system kinds that read a swept system parameter
_GRID_KINDS = {"epsilon": ("perturbed",), "t": ("time_t", "perturbed")}


#: the JSON values each field annotation takes, and how an error names
#: them; bool, a subclass of int, is rejected everywhere
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "tuple": ((list, tuple), "a list"),
}


def _check_type(annotation, value, label):
    """Reject a value whose JSON type does not fit the annotation."""
    if annotation not in _JSON_TYPES:
        return
    types, what = _JSON_TYPES[annotation]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{label} must be {what}, got {type(value).__name__} {value!r}")


def _parse_fields(cls, data, context):
    if not isinstance(data, dict):
        raise ValueError(f"config section {context or 'top level'} must be an object")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown config key: {context}{unknown[0]!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        _check_type(f.type, value, f"config key {context}{f.name!r}")
        if f.name == "system":
            kwargs[f.name] = _parse_fields(SystemConfig, value, context + "system.")
        elif isinstance(value, (list, tuple)):
            kwargs[f.name] = _deep_tuple(value)
        else:
            kwargs[f.name] = value
    return cls(**kwargs)


def parse_config(data):
    """Parse a JSON-style dict into an experiment config dataclass."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    body = dict(data)
    kind = body.pop("experiment", None)
    if kind not in _EXPERIMENTS:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise ValueError(f"unknown experiment kind {kind!r} (expected one of: {known})")
    if kind != "sweep":
        return _parse_fields(_EXPERIMENTS[kind], body, "")
    unknown = sorted(set(body) - {"base", "grid"})
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]!r}")
    if "base" not in body or not isinstance(body["base"], dict):
        raise ValueError("sweep config needs a 'base' experiment object")
    base = parse_config(body["base"])
    if base.experiment not in ("estimate", "growth"):
        raise ValueError("sweep base must be an estimate or growth experiment")
    raw_grid = body.get("grid", {})
    if not isinstance(raw_grid, dict) or not raw_grid:
        raise ValueError("sweep grid must be a nonempty object of parameter lists")
    grid = []
    for name in sorted(raw_grid):
        if name not in _GRID_PARAMS:
            raise ValueError(
                f"unknown sweep parameter {name!r} (expected one of: "
                + ", ".join(_GRID_PARAMS)
                + ")"
            )
        values = raw_grid[name]
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep parameter {name!r} needs a nonempty value list")
        kinds = _GRID_KINDS.get(name)
        if kinds and base.system.kind not in kinds:
            raise ValueError(
                f"sweep parameter {name!r} needs a {' or '.join(kinds)} system, "
                f"got kind {base.system.kind!r}"
            )
        # apply_grid_point would coerce these; a value is kept as written,
        # so the canonical config and the point ids do not move
        for v in values:
            if name == "n":
                systems._positive_whole(v, f"sweep parameter {name!r}")
            else:
                _check_type("float", v, f"sweep parameter {name!r}")
                # json.loads reads NaN and Infinity as numbers
                systems._finite(v, f"sweep parameter {name!r}", positive=None)
        grid.append((name, tuple(values)))
    return SweepConfig(base=base, grid=tuple(grid))


def serialize_config(cfg):
    """Canonical JSON-style dict of a config; inverse of parse_config."""
    if isinstance(cfg, SweepConfig):
        return {
            "experiment": "sweep",
            "base": serialize_config(cfg.base),
            "grid": {name: _deep_list(values) for name, values in cfg.grid},
        }
    out = {"experiment": cfg.experiment}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, SystemConfig):
            sysd = {}
            for sf in fields(SystemConfig):
                sysd[sf.name] = _deep_list(getattr(value, sf.name))
            out[f.name] = sysd
        else:
            out[f.name] = _deep_list(value)
    return out


def apply_grid_point(base, assignment):
    """Base config with one sweep assignment {param: value} applied."""
    cfg = base
    for name, value in assignment.items():
        if name == "t":
            cfg = replace(cfg, system=replace(cfg.system, t=float(value)))
        elif name == "epsilon":
            cfg = replace(cfg, system=replace(cfg.system, epsilon=float(value)))
        elif name == "delta":
            if isinstance(cfg, GrowthConfig):
                cfg = replace(cfg, delta=float(value))
            else:
                cfg = replace(cfg, delta_schedule=(float(value),))
        elif name == "n":
            horizon = tuple(range(1, int(value) + 1))
            if isinstance(cfg, GrowthConfig):
                cfg = replace(cfg, N_schedule=horizon)
            else:
                cfg = replace(cfg, n_schedule=horizon)
        else:
            raise ValueError(f"unknown sweep parameter {name!r}")
    return cfg


def grid_points(sweep_cfg):
    """Assignments of a sweep grid in lexicographic order over the sorted
    parameter names."""
    grid = sorted(sweep_cfg.grid)
    names = [name for name, _ in grid]
    return [
        dict(zip(names, values))
        for values in itertools.product(*(values for _, values in grid))
    ]


def override_seeds(cfg, seed):
    """Config with every RNG seed field replaced by `seed`."""
    seed = systems._whole(seed, "seed")
    if isinstance(cfg, SweepConfig):
        return replace(cfg, base=override_seeds(cfg.base, seed))
    if isinstance(cfg, EstimateConfig):
        return replace(cfg, cloud_seed=seed, order_seed=seed)
    if isinstance(cfg, FoliationCheckConfig):
        return replace(cfg, rng_seed=seed)
    return cfg


def _build_shape(shape, harmonics, direction):
    if shape == "center_shear":
        if harmonics:
            return systems.CenterShear(_deep_tuple(harmonics))
        return systems.CenterShear()
    if shape == "base_shear":
        kwargs = {}
        if direction:
            kwargs["direction"] = _deep_tuple(direction)
        if harmonics:
            kwargs["harmonics"] = _deep_tuple(harmonics)
        return systems.BaseShear(**kwargs)
    raise ValueError(f"unknown shear shape {shape!r}")


def system_from_config(cfg: SystemConfig):
    """Assemble the system handle a SystemConfig describes."""
    matrix = [list(row) for row in cfg.matrix]
    if cfg.kind == "toral":
        return systems.ToralMapHandle(matrix)
    if cfg.kind in ("time_t", "perturbed"):
        roof = systems.Roof(
            cfg.roof_constant,
            [(tuple(m), float(a)) for m, a in cfg.roof_terms],
        )
        flow = systems.SuspensionFlow(matrix, roof)
        reference = systems.TimeTMapHandle(flow, cfg.t)
        if cfg.kind == "time_t":
            return reference
        shape = _build_shape(cfg.shape, cfg.harmonics, cfg.direction)
        return systems.PerturbedHandle(reference, cfg.epsilon, shape)
    raise ValueError(f"unknown system kind {cfg.kind!r}")
