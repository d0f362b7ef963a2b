import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import config, entropy, foliation, growth, runner, systems
from entroflow.foliation import unstable_segment
from entroflow.growth import (
    GrowthCurve,
    VertexBudgetExceeded,
    count_disjoint_disks,
    disk_center_arcs,
    disk_vs_box_comparison,
    grow_segment,
    unstable_rate_estimate,
)
from entroflow.systems import CenterShear, PerturbedHandle

from conftest import LOG_LAMBDA

LAMBDA = math.exp(LOG_LAMBDA)
CAT = systems.cat_map()
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
TIME1 = systems.TimeTMapHandle(
    systems.SuspensionFlow(systems.ToralMapHandle([[2, 1], [1, 1]]), systems.Roof(1.0)),
    1.0,
)


def test_packing_positions_frozen():
    arcs = disk_center_arcs(1.0, 0.1)
    assert np.allclose(arcs, [0.05, 0.25, 0.45, 0.65, 0.85], atol=1e-12)
    assert disk_center_arcs(0.05, 0.1).size == 0
    assert np.allclose(disk_center_arcs(0.1, 0.1), [0.05], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    arclength=st.floats(0.0, 50.0, allow_nan=False),
    two_delta=st.floats(0.01, 1.0, allow_nan=False),
)
def test_packing_spacing_and_count(arclength, two_delta):
    arcs = disk_center_arcs(arclength, two_delta)
    if arclength < two_delta:
        assert arcs.size == 0
        return
    assert arcs.size == 1 + math.floor((arclength - two_delta) / (2 * two_delta) + 1e-12)
    assert np.all(arcs >= two_delta / 2 - 1e-12)
    assert np.all(arcs <= arclength - two_delta / 2 + 1e-9)
    if arcs.size > 1:
        assert np.allclose(np.diff(arcs), 2 * two_delta, atol=1e-12)


def test_grow_segment_exact_stretch():
    seg = unstable_segment(CAT, np.array([0.2, 0.3]), 0.05)
    grown = grow_segment(CAT, seg, 5, spacing=0.005)
    assert grown.arclength == pytest.approx(0.1 * LAMBDA ** 5, rel=1e-3)
    gaps = CAT.space.distance(grown.points[:-1], grown.points[1:])
    assert float(np.max(gaps)) <= 0.005 + 1e-12


def test_grow_segment_zero_steps_and_validation():
    seg = unstable_segment(CAT, np.array([0.2, 0.3]), 0.05)
    assert grow_segment(CAT, seg, 0, spacing=0.005) is seg
    with pytest.raises(ValueError, match="unstable"):
        from entroflow.foliation import stable_segment

        grow_segment(CAT, stable_segment(CAT, np.array([0.2, 0.3]), 0.05), 1, 0.005)
    with pytest.raises(ValueError, match="nonnegative"):
        grow_segment(CAT, seg, -1, 0.005)
    with pytest.raises(ValueError, match="positive"):
        grow_segment(CAT, seg, 1, 0.0)


def test_count_disjoint_disks_matches_arc_formula():
    seg = unstable_segment(CAT, np.array([0.2, 0.3]), 0.05)
    grown = grow_segment(CAT, seg, 4, spacing=0.005)
    count, centers = count_disjoint_disks(grown, 0.04)
    assert count == disk_center_arcs(grown.arclength, 0.04).size
    assert centers.shape == (count, 2)


def test_growth_curve_rejects_bad_tables():
    with pytest.raises(ValueError, match="nondecreasing"):
        GrowthCurve(
            base_point=(0.0, 0.0),
            delta=0.02,
            counts=((1, 5), (2, 3)),
            rate=0.0,
            rate_stderr=0.0,
            center_arcs=(np.array([]), np.array([])),
            arclengths=((1, 0.1), (2, 0.2)),
        )
    with pytest.raises(ValueError, match="4"):
        GrowthCurve(
            base_point=(0.0, 0.0),
            delta=0.02,
            counts=((1, 2),),
            rate=0.0,
            rate_stderr=0.0,
            center_arcs=(np.array([0.02, 0.05]),),
            arclengths=((1, 0.1),),
        )


def pairwise_min_dn(sys, pts, n):
    orbits = sys.orbit_table(pts, n)
    best = np.zeros((pts.shape[0], pts.shape[0]))
    for i in range(n):
        layer = orbits[i]
        diffs = systems.wrap_diff(layer[None, :, :], layer[:, None, :])
        best = np.maximum(best, np.linalg.norm(diffs, axis=2))
    off = best[~np.eye(pts.shape[0], dtype=bool)]
    return float(np.min(off))


def test_rate_estimate_cat_map_window():
    curve = unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, range(4, 9))
    assert [c for _, c in curve.counts] == [23, 61, 161, 421, 1103]
    assert 0.91 <= curve.rate <= 1.01
    rows = curve.table()
    for (n, count, log_count, arclength), (_, c) in zip(rows, curve.counts):
        assert log_count == pytest.approx(math.log(c), abs=1e-12)
        assert arclength == pytest.approx(0.04 * LAMBDA ** n, rel=1e-6)


def test_packing_centers_are_separated():
    # the packing/separation bridge: disk centers are (N, delta)-separated
    curve = unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, [5])
    grown = grow_segment(CAT, unstable_segment(CAT, np.array([0.2, 0.3]), 0.02), 5, 0.002)
    count, centers = count_disjoint_disks(grown, 0.04)
    assert curve.counts == ((5, count),)
    assert centers.shape[0] == 61
    assert pairwise_min_dn(CAT, centers, 5) > 0.02


def test_counts_supermultiplicative_within_factor_four():
    curve = unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, range(4, 11))
    counts = dict(curve.counts)
    for a in (4, 5):
        for b in (4, 5, 6):
            if a + b in counts:
                assert 4 * counts[a + b] >= counts[a] * counts[b]


def test_rate_estimate_validation():
    with pytest.raises(ValueError, match="nonempty"):
        unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, [])
    with pytest.raises(ValueError, match="increasing"):
        unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, [3, 3])
    with pytest.raises(ValueError, match="delta"):
        unstable_rate_estimate(CAT, (0.2, 0.3), -0.1, [1, 2])
    with pytest.raises(ValueError, match="spacing"):
        unstable_rate_estimate(CAT, (0.2, 0.3), 0.02, [1, 2], spacing=0.01)


def test_disk_vs_box_report_consistency(time1):
    report = disk_vs_box_comparison(
        time1,
        np.array([0.2, 0.3, 0.37]),
        0.05,
        n_schedule=(1, 2),
        samples_per_axis=8,
        disk_samples=300,
    )
    assert report.difference == pytest.approx(
        report.box_rate - report.disk_rate, abs=1e-12
    )
    assert report.passed == (abs(report.difference) <= report.tolerance)
    assert report.disk_estimate.cloud_size <= 300
    assert report.box_estimate.cloud_size <= 8 * 8 * 8


def reference_push(sys, pts, spacing):
    """Recursive per-edge bisection of one forward step.

    Each pre-image edge whose image chord exceeds `spacing` is split at its
    parameter midpoint, depth first.  Returns the images.
    """
    space = sys.space
    imgs = sys.step(pts)

    def chain(pre_a, img_a, pre_b, img_b, depth):
        if float(space.distance(img_a, img_b)) <= spacing or depth >= 24:
            return [img_b]
        mid_pre = space.lerp(pre_a, pre_b, 0.5)
        mid_img = sys.step(mid_pre[None, :])[0]
        left = chain(pre_a, img_a, mid_pre, mid_img, depth + 1)
        right = chain(mid_pre, mid_img, pre_b, img_b, depth + 1)
        return left + right

    out = [imgs[0]]
    for i in range(pts.shape[0] - 1):
        out.extend(chain(pts[i], imgs[i], pts[i + 1], imgs[i + 1], 0))
    return np.stack(out)


def refine(sys, pts, spacing):
    """The shared refinement step, its chords re-measured for the check."""
    imgs, chords = foliation.refine_step(sys, pts, spacing)
    assert np.array_equal(chords, sys.space.distance(imgs[:-1], imgs[1:]))
    return imgs


def _refinement_cases():
    flow = systems.SuspensionFlow(
        systems.ToralMapHandle([[2, 1], [1, 1]]), systems.Roof(1.0)
    )
    time1 = systems.TimeTMapHandle(flow, 1.0)
    return {
        "cat_map": (CAT, (0.2, 0.3), 0.005),
        "suspension_time1": (time1, (0.2, 0.3, 0.37), 0.005),
        "center_shear_0.04": (
            PerturbedHandle(time1, 0.04, CenterShear()), (0.2, 0.3, 0.37), 0.004
        ),
    }


@pytest.mark.parametrize("case", ["cat_map", "suspension_time1", "center_shear_0.04"])
def test_refinement_matches_recursive_bisection(case):
    sys, x, spacing = _refinement_cases()[case]
    # the reference leaf: the eigenline for the unperturbed map
    ref = sys.reference if isinstance(sys, PerturbedHandle) else sys
    seg = unstable_segment(ref, np.array(x), 0.05)
    pts = seg.points
    for _ in range(4):
        expect = reference_push(sys, pts, spacing)
        assert np.array_equal(refine(sys, pts, spacing), expect)
        pts = expect
    grown = grow_segment(sys, seg, 4, spacing)
    assert np.array_equal(grown.points, pts)
    chords = sys.space.distance(pts[:-1], pts[1:])
    assert np.array_equal(grown.arc_coords, np.concatenate([[0.0], np.cumsum(chords)]))


def insert_refine_step(sys, pts, spacing):
    """Midpoint refinement that re-inserts the bisected edges into the
    whole polyline on every pass (np.insert into chords, images and
    pre-images)."""
    space = sys.space
    imgs = np.atleast_2d(sys.step(pts))
    chords = np.atleast_1d(space.distance(imgs[:-1], imgs[1:]))
    for _ in range(64):
        bad = np.flatnonzero(chords > spacing)
        if bad.size == 0:
            return imgs, chords
        mids = space.lerp(pts[bad], pts[bad + 1], 0.5)
        mid_imgs = np.atleast_2d(sys.step(mids))
        left = np.atleast_1d(space.distance(imgs[bad], mid_imgs))
        right = np.atleast_1d(space.distance(mid_imgs, imgs[bad + 1]))
        chords[bad] = left
        chords = np.insert(chords, bad + 1, right)
        imgs = np.insert(imgs, bad + 1, mid_imgs, axis=0)
        pts = np.insert(pts, bad + 1, mids, axis=0)
    raise RuntimeError("midpoint refinement failed to settle in 64 passes")


@pytest.mark.parametrize("case", ["cat_map", "suspension_time1", "center_shear_0.04"])
def test_refine_step_matches_insert_reference(case):
    sys, x, spacing = _refinement_cases()[case]
    # a grown segment: its chords sit anywhere up to spacing, so passes
    # bisect scattered edges; shorter spacings force deeper passes
    seg = grow_segment(sys, unstable_segment(sys, np.array(x), 0.02), 5, spacing)
    for sp in (spacing, spacing / 7.0):
        got = foliation.refine_step(sys, seg.points, sp)
        expect = insert_refine_step(sys, seg.points, sp)
        for a, b in zip(got, expect, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    # one vertex and an already fine polyline
    one = seg.points[:1]
    for a, b in zip(
        foliation.refine_step(sys, one, spacing),
        insert_refine_step(sys, one, spacing),
        strict=True,
    ):
        assert np.array_equal(a, b)
    fine = seg.points
    for a, b in zip(
        foliation.refine_step(sys, fine, 10.0),
        insert_refine_step(sys, fine, 10.0),
        strict=True,
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["suspension_time1", "center_shear_0.04"])
def test_full_and_partial_passes_in_one_call(case, monkeypatch):
    sys, x, h = _refinement_cases()[case]
    # edges of h and 2h along the leaf stretch to about LAMBDA*h and
    # 2*LAMBDA*h: the first pass bisects every edge, the second only the
    # halves of the long ones
    seg = unstable_segment(sys, np.array(x), 0.05, spacing=h)
    pts = seg.points[[i for i in range(seg.vertex_count) if i % 3 != 2]]
    spacing = 0.75 * LAMBDA * h
    passed = []
    interleaved = foliation._interleaved

    def counted(rows, new, old, at):
        passed.append((old, at))
        return interleaved(rows, new, old, at)

    monkeypatch.setattr(foliation, "_interleaved", counted)
    got = foliation.refine_step(sys, pts, spacing)
    # pre-images and images: two calls per pass; the full pass addresses
    # its rows by slices
    assert len(passed) == 4
    assert passed[:2] == [(slice(0, None, 2), slice(1, None, 2))] * 2
    assert not any(isinstance(a, slice) for pair in passed[2:] for a in pair)
    expect = insert_refine_step(sys, pts, spacing)
    for a, b in zip(got, expect, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_continuity_member_step_bisects_every_edge_without_a_scatter(monkeypatch):
    cfg = config.parse_config(
        json.loads((CONFIG_DIR / "continuity_center_shear.json").read_text())
    )
    sys = config.system_from_config(
        replace(
            cfg.system,
            kind="perturbed",
            epsilon=0.04,
            shape=cfg.shape,
            harmonics=cfg.harmonics,
            direction=cfg.direction,
        )
    )
    # the member's seed and its first step (unstable_rate_estimate)
    seg = unstable_segment(sys, np.array(cfg.x), cfg.delta)
    spacing = cfg.delta / 10.0
    expect = insert_refine_step(sys, seg.points, spacing)

    interleaved = foliation._interleaved

    def strided(rows, new, old, at):
        if not (isinstance(old, slice) and isinstance(at, slice)):
            raise AssertionError("a pass that bisects every edge scattered its rows")
        return interleaved(rows, new, old, at)

    monkeypatch.setattr(foliation, "_interleaved", strided)
    got = foliation.refine_step(sys, seg.points, spacing)
    assert got[0].shape[0] == 2 * seg.vertex_count - 1
    for a, b in zip(got, expect, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spacing", [0.0, -0.005])
def test_refine_step_rejects_a_spacing_that_is_not_positive(spacing, monkeypatch):
    # without the check a spacing <= 0 bisects every edge on each of 64
    # passes; no pass may run here
    def no_pass(*args):
        raise AssertionError("refine_step ran a bisection pass")

    monkeypatch.setattr(foliation, "_bisection_passes", no_pass)
    with pytest.raises(ValueError, match="^spacing must be "):
        foliation.refine_step(CAT, _CAT_SEED.points, spacing)


def _square(v):
    return v * v


def _over_budget(v):
    raise VertexBudgetExceeded(3, 100 + v, 10)


def test_fork_map_keeps_order_and_reraises_worker_errors():
    assert entropy._fork_map(_square, range(7), 2) == [v * v for v in range(7)]
    assert entropy._fork_map(lambda v: -v, [1, 2], 3) == [-1, -2]
    with pytest.raises(VertexBudgetExceeded) as info:
        entropy._fork_map(_over_budget, [1, 2], 2)
    assert (info.value.step_index, info.value.needed, info.value.budget) == (3, 101, 10)
    assert info.value.reached_step == 2


# --------------------------------------------------------------------------
# non-finite base points, radii and spacings

_CAT_SEED = unstable_segment(CAT, np.array([0.2, 0.3]), 0.05)

# entry point -> (call with the bad value, the argument its error names)
NONFINITE_CALLS = {
    "grow_segment": (lambda v: grow_segment(CAT, _CAT_SEED, 2, v), "spacing"),
    "refine_step": (lambda v: foliation.refine_step(CAT, _CAT_SEED.points, v), "spacing"),
    "unstable_rate_estimate-delta": (
        lambda v: unstable_rate_estimate(CAT, (0.2, 0.3), v, [1, 2]),
        "delta",
    ),
    "unstable_rate_estimate-spacing": (
        lambda v: unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [1, 2], spacing=v),
        "spacing",
    ),
    "unstable_segment-radius": (
        lambda v: unstable_segment(CAT, np.array([0.2, 0.3]), v),
        "radius",
    ),
    "unstable_segment-spacing": (
        lambda v: unstable_segment(CAT, np.array([0.2, 0.3]), 0.05, spacing=v),
        "spacing",
    ),
    "build_product_box": (
        lambda v: foliation.build_product_box(TIME1, np.array([0.2, 0.3, 0.37]), v, 8),
        "delta",
    ),
    "disk_center_arcs-arclength": (lambda v: disk_center_arcs(v, 0.1), "arclength"),
    "disk_center_arcs-two_delta": (lambda v: disk_center_arcs(10.0, v), "two_delta"),
    "density_check-center_radius": (
        lambda v: foliation.density_check(TIME1, [0.2, 0.3, 0.4], v, 1.0, TIME1.space.grid(3)),
        "center_radius",
    ),
    "density_check-leaf_radius": (
        lambda v: foliation.density_check(TIME1, [0.2, 0.3, 0.4], 1.0, v, TIME1.space.grid(3)),
        "leaf_radius",
    ),
    "unstable_rate_estimate-x": (
        lambda v: unstable_rate_estimate(CAT, (v, 0.3), 0.05, [1, 2]),
        "base point",
    ),
    "build_product_box-x": (
        lambda v: foliation.build_product_box(TIME1, np.array([0.2, 0.3, v]), 0.05, 8),
        "base point",
    ),
    "density_check-x": (
        lambda v: foliation.density_check(TIME1, [0.2, v, 0.4], 1.0, 1.0, TIME1.space.grid(3)),
        "base point",
    ),
    "center_holonomy-y": (
        lambda v: foliation.center_holonomy(
            TIME1, [0.2, 0.3, 0.4], [0.2, 0.3, v], np.array([[0.2, 0.3, 0.4]]), 2
        ),
        "base point",
    ),
    "entropy_estimate-delta_schedule": (
        lambda v: entropy.entropy_estimate(CAT, entropy.grid_cloud(CAT, 8), [1, 2], [v]),
        "delta",
    ),
    "center_segment-length": (
        lambda v: foliation.center_segment(TIME1, [0.2, 0.3, 0.4], v),
        "length",
    ),
    # a NaN tolerance gave passed=False without an error
    "disk_vs_box_comparison-tolerance": (
        lambda v: disk_vs_box_comparison(TIME1, [0.2, 0.3, 0.4], 0.05, (1, 2), tolerance=v),
        "tolerance",
    ),
    "disk_vs_box_comparison-delta": (
        lambda v: disk_vs_box_comparison(TIME1, [0.2, 0.3, 0.4], v, (1, 2)),
        "delta",
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(NONFINITE_CALLS))
def test_nonfinite_radius_or_spacing_is_rejected_by_name(entry, value):
    call, name = NONFINITE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


# float() took a bool and a quoted number: spacing=True ran as 1.0,
# unstable_rate_estimate(delta="0.05") ran, and so did spacing="0.005",
# which is within both spacing bounds, delta_schedule=["0.1"], a center
# length of True or "0.5" and a tolerance of "0.1"; a refused string is
# printed quoted
@pytest.mark.parametrize("value", [True, "0.05", "0.005"], ids=repr)
@pytest.mark.parametrize(
    "entry", sorted(e for e, (_, name) in NONFINITE_CALLS.items() if name != "base point")
)
def test_a_bool_or_quoted_radius_or_spacing_is_rejected_by_name(entry, value):
    call, name = NONFINITE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be .*finite, got {re.escape(repr(value))}$"):
        call(value)


# entry point -> (call with the step number, worker count or seed, the
# argument its error names); each call returns a plain value that == can
# compare
STEP_CALLS = {
    "grow_segment": (
        lambda v: grow_segment(CAT, _CAT_SEED, v, 0.005).points.tolist(),
        "steps",
    ),
    "unstable_rate_estimate": (
        lambda v: unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [v, 3]).counts,
        "each N_schedule entry",
    ),
    "entropy_estimate": (
        lambda v: entropy.entropy_estimate(CAT, entropy.grid_cloud(CAT, 8), [v, 3], [0.2]).counts,
        "each n_schedule entry",
    ),
    # workers=2.5 ran as 2 and order_seed=True as seed 1
    "entropy_estimate-workers": (
        lambda v: entropy.entropy_estimate(
            CAT, entropy.grid_cloud(CAT, 8), [1, 2], [0.2, 0.1], workers=v
        ).counts,
        "workers",
    ),
    "entropy_estimate-order_seed": (
        lambda v: entropy.entropy_estimate(
            CAT, entropy.grid_cloud(CAT, 8), [1, 2], [0.2], order_seed=v
        ).counts,
        "order_seed",
    ),
    # the seeds below went to numpy unchecked: True ran as seed 1, and 2.5
    # or "3" failed in SeedSequence without naming the argument;
    # override_seeds truncated 2.5 to 2 and took "3" and True
    "max_separated-order_seed": (
        lambda v: entropy.max_separated(CAT, entropy.grid_cloud(CAT, 8), 2, 0.1, order_seed=v).indices.tolist(),
        "order_seed",
    ),
    "random_cloud-seed": (lambda v: entropy.random_cloud(CAT, 10, v).points.tolist(), "seed"),
    "center_nonexpansion_check-rng_seed": (
        lambda v: foliation.center_nonexpansion_check(TIME1, samples=4, horizon=3, rng_seed=v),
        "rng_seed",
    ),
    "override_seeds": (lambda v: config.override_seeds(config.EstimateConfig(), v), "seed"),
    "disk_vs_box_comparison-order_seed": (
        lambda v: disk_vs_box_comparison(
            TIME1, _TIME1_X, 0.05, (1, 2), samples_per_axis=2, disk_samples=10, order_seed=v
        ).disk_estimate.counts,
        "order_seed",
    ),
}


# int() and float() take a numeric string and a bool: grid("3") made 9
# points and grid(True) one; grid("x") and grid(None) failed without
# naming the field
NOT_WHOLE = [1.5, math.nan, math.inf, "3", "x", True, np.True_, None, [3]]


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
@pytest.mark.parametrize("entry", sorted(STEP_CALLS))
def test_a_step_number_that_is_not_whole_is_rejected_by_name(entry, value):
    call, name = STEP_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {re.escape(repr(value))}$"):
        call(value)
    # a whole float runs as its integer
    assert call(2.0) == call(2)


def test_disk_vs_box_refuses_its_order_seed_before_building_the_box(monkeypatch):
    # the seed was refused by entropy_estimate, after the box was built
    built = []
    monkeypatch.setattr(foliation, "build_product_box", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="^order_seed must be a whole number, got True$"):
        disk_vs_box_comparison(TIME1, _TIME1_X, 0.05, (1, 2), order_seed=True)
    assert built == []


# entry point -> (call with the grid resolution, the argument its error
# names); each call returns a plain value that == can compare
GRID_CALLS = {
    "TorusSpace.grid": (lambda v: CAT.space.grid(v).tolist(), "resolution"),
    "MappingTorusSpace.grid": (lambda v: TIME1.space.grid(v).tolist(), "resolution"),
    "grid_cloud": (lambda v: entropy.grid_cloud(CAT, v).points.tolist(), "resolution"),
}


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
@pytest.mark.parametrize("entry", sorted(GRID_CALLS))
def test_a_grid_resolution_that_is_not_whole_is_rejected_by_name(entry, value):
    call, name = GRID_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {re.escape(repr(value))}$"):
        call(value)
    # a whole float, as a JSON config may carry it, runs as its integer
    assert call(4.0) == call(4)


# entry point -> (call with the count, the argument its error names); each
# call returns a plain value that == can compare.  int() truncated 2.5 to
# 2 and took True as 1; center_nonexpansion_check raised TypeError
_TIME1_X = [0.2, 0.3, 0.4]
COUNT_CALLS = {
    "center_holonomy-depth": (
        lambda v: foliation.center_holonomy(TIME1, _TIME1_X, _TIME1_X, [_TIME1_X], v).tolist(),
        "depth",
    ),
    "build_product_box-samples_per_axis": (
        lambda v: foliation.build_product_box(TIME1, _TIME1_X, 0.05, v).d_samples.tolist(),
        "samples_per_axis",
    ),
    "random_cloud-count": (lambda v: entropy.random_cloud(CAT, v, 0).points.tolist(), "count"),
    "disk_vs_box_comparison-disk_samples": (
        lambda v: disk_vs_box_comparison(
            TIME1, _TIME1_X, 0.05, (1, 2), samples_per_axis=2, disk_samples=v
        ).disk_estimate.counts,
        "disk_samples",
    ),
    "center_nonexpansion_check-samples": (
        lambda v: foliation.center_nonexpansion_check(TIME1, samples=v, horizon=3),
        "samples",
    ),
    "center_nonexpansion_check-horizon": (
        lambda v: foliation.center_nonexpansion_check(TIME1, samples=4, horizon=v),
        "horizon",
    ),
}


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNT_CALLS))
def test_a_count_that_is_not_whole_is_rejected_by_name(entry, value):
    call, name = COUNT_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {re.escape(repr(value))}$"):
        call(value)
    assert call(3.0) == call(3)


# the grid resolutions a config carries, through the runner; each call
# fails before any work is done
CONFIG_GRID_CALLS = {
    "estimate resolution": (
        lambda v: runner.run_config(config.EstimateConfig(resolution=v), 1),
        "resolution",
    ),
    "foliation-check probe_resolution": (
        lambda v: runner.run_config(config.FoliationCheckConfig(probe_resolution=v), 1),
        "probe_resolution",
    ),
}


@pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
@pytest.mark.parametrize("entry", sorted(CONFIG_GRID_CALLS))
def test_a_config_resolution_that_is_not_whole_is_rejected_by_name(entry, value):
    call, name = CONFIG_GRID_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {re.escape(repr(value))}$"):
        call(value)


# grid(-2) made an empty grid, and center_nonexpansion_check(horizon=0)
# passed without a step
@pytest.mark.parametrize("value", [0, -2, -2.0])
@pytest.mark.parametrize("entry", sorted(GRID_CALLS) + sorted(CONFIG_GRID_CALLS) + sorted(COUNT_CALLS))
def test_a_grid_resolution_below_one_is_rejected_by_name(entry, value):
    call, name = {**GRID_CALLS, **CONFIG_GRID_CALLS, **COUNT_CALLS}[entry]
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {int(value)}$"):
        call(value)


@pytest.mark.parametrize("value", [1.5, math.nan, math.inf])
def test_a_vertex_budget_that_is_not_whole_is_rejected_by_name(value):
    with pytest.raises(ValueError, match=f"^vertex_budget must be a whole number, got {value!r}$"):
        unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [1, 2, 3], vertex_budget=value)


def test_vertex_budget_is_none_or_a_whole_number_at_least_zero():
    with pytest.raises(ValueError, match="^vertex_budget must be None or >= 0, got -1$"):
        unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [1, 2, 3], vertex_budget=-1)
    unbounded = unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [1, 2, 3], vertex_budget=None)
    whole_float = unstable_rate_estimate(CAT, (0.2, 0.3), 0.05, [1, 2, 3], vertex_budget=1e6)
    assert unbounded.counts == whole_float.counts
    assert unbounded.arclengths == whole_float.arclengths


# --------------------------------------------------------------------------
# growth in bounded pieces


def whole_polyline_curve(sys, x, delta, schedule):
    """Counts, arclengths and center arcs of the whole grown polyline at
    each scheduled step: grow_segment and count_disjoint_disks."""
    seg = unstable_segment(sys, np.asarray(x, dtype=float), delta)
    rows, prev = [], 0
    for n in schedule:
        seg = grow_segment(sys, seg, n - prev, delta / 10.0)
        prev = n
        count, _ = count_disjoint_disks(seg, 2.0 * delta)
        rows.append((n, count, seg.arclength, disk_center_arcs(seg.arclength, 2.0 * delta)))
    return rows


def assert_curve_is(curve, rows):
    assert curve.counts == tuple((n, c) for n, c, *_ in rows)
    assert curve.arclengths == tuple((n, length) for n, _, length, *_ in rows)
    for got, want in zip(curve.center_arcs, [r[3] for r in rows], strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _piece_cases():
    growth_cfg = json.loads((CONFIG_DIR / "growth_catmap.json").read_text())
    return {
        # the shipped growth config's inputs
        "cat_map": (CAT, growth_cfg["x"], growth_cfg["delta"], growth_cfg["N_schedule"]),
        "suspension_time1": (TIME1, (0.2, 0.3, 0.37), 0.02, [1, 2, 4, 5, 6, 7, 8]),
        "center_shear_0.04": (
            PerturbedHandle(TIME1, 0.04, CenterShear()), (0.2, 0.3, 0.37), 0.02, range(1, 9)
        ),
    }


@pytest.mark.parametrize("case", ["cat_map", "suspension_time1", "center_shear_0.04"])
def test_small_pieces_give_the_whole_polyline_bytes(case, monkeypatch):
    sys, x, delta, schedule = _piece_cases()[case]
    rows = whole_polyline_curve(sys, x, delta, schedule)
    assert_curve_is(unstable_rate_estimate(sys, x, delta, schedule), rows)
    # many seams: a piece is cut once it holds more than 64 vertices
    monkeypatch.setattr(growth, "PIECE_VERTICES", 64)
    inputs = []

    def counted(sys_, piece, *args):
        inputs.append(piece.vertex_count)
        return grow_segment(sys_, piece, *args)

    monkeypatch.setattr(growth, "grow_segment", counted)
    assert_curve_is(unstable_rate_estimate(sys, x, delta, schedule), rows)
    assert max(inputs) <= 64
    assert len(inputs) > 20 * schedule[-1]


def test_cut_pieces_share_seams_and_own_their_memory(monkeypatch):
    monkeypatch.setattr(growth, "PIECE_VERTICES", 64)
    piece = grow_segment(CAT, _CAT_SEED, 3, 0.005)
    assert piece.vertex_count > 3 * 64
    pieces = growth._cut(piece)
    assert max(p.vertex_count for p in pieces) <= 64
    assert len(pieces) == -(-(piece.vertex_count - 1) // 63)
    for a, b in zip(pieces, pieces[1:]):
        assert np.array_equal(a.points[-1], b.points[0])
    joined = np.concatenate([pieces[0].points] + [p.points[1:] for p in pieces[1:]])
    assert np.array_equal(joined, piece.points)
    assert np.array_equal(np.concatenate([p.chords for p in pieces]), piece.chords)
    # a view would keep the whole piece alive
    assert all(p.points.base is None and p.chords.base is None for p in pieces)


def test_budget_names_the_first_step_over_it(monkeypatch):
    monkeypatch.setattr(growth, "PIECE_VERTICES", 64)
    x, delta = (0.2, 0.3), 0.02
    seg = unstable_segment(CAT, np.array(x), delta)
    totals = []
    for _ in range(8):
        seg = grow_segment(CAT, seg, 1, delta / 10.0)
        totals.append(seg.vertex_count)
    assert totals == sorted(totals)
    for step in (2, 5, 8):
        # the whole polyline fits the budget up to step - 1 and not at step;
        # growing depth-first, the first piece alone overflows a later step's
        # total before the other pieces have reached this one
        budget = totals[step - 1] - 1
        with pytest.raises(VertexBudgetExceeded) as info:
            unstable_rate_estimate(CAT, x, delta, range(1, 9), vertex_budget=budget)
        err = info.value
        assert err.step_index == step
        assert err.reached_step == step - 1
        assert budget < err.needed <= totals[step - 1]
        assert err.budget == budget
        assert "completed" in str(err)
    curve = unstable_rate_estimate(CAT, x, delta, range(1, 9), vertex_budget=totals[-1])
    assert curve.counts[-1][0] == 8


# --------------------------------------------------------------------------
# the closed form on constant roofs: arclength 2 delta lambda^N


def _closed_form_cases():
    growth_cfg = config.parse_config(json.loads((CONFIG_DIR / "growth_catmap.json").read_text()))
    cont_cfg = config.parse_config(
        json.loads((CONFIG_DIR / "continuity_center_shear.json").read_text())
    )
    # the eps = 0 member: one seam crossing per step on roof 1, so K_N = N
    eps0 = config.system_from_config(
        replace(
            cont_cfg.system,
            kind="perturbed",
            shape=cont_cfg.shape,
            harmonics=cont_cfg.harmonics,
            direction=cont_cfg.direction,
        )
    )
    return {
        "growth_catmap": (config.system_from_config(growth_cfg.system), growth_cfg),
        "continuity_eps0": (eps0, cont_cfg),
    }


@pytest.mark.parametrize("pieces", [None, 256])
@pytest.mark.parametrize("case", ["growth_catmap", "continuity_eps0"])
def test_growth_matches_the_closed_form(case, pieces, monkeypatch):
    sys, cfg = _closed_form_cases()[case]
    if pieces is not None:
        monkeypatch.setattr(growth, "PIECE_VERTICES", pieces)
    curve = unstable_rate_estimate(sys, cfg.x, cfg.delta, cfg.N_schedule)
    two_delta = 2.0 * cfg.delta
    for (n, count), (_, length) in zip(curve.counts, curve.arclengths, strict=True):
        exact = two_delta * LAMBDA**n
        assert abs(length - exact) <= 1e-9 * exact
        assert count == disk_center_arcs(exact, two_delta).size


# --------------------------------------------------------------------------
# golden arclengths: every bit of the grown lengths, which the packing
# counts and rates hide


# the eps = 0 and eps = 0.04 members of continuity_center_shear.json: the
# shear moves whole horizontal segments alike, so both grow the same lengths
CONTINUITY_ARCLENGTHS = [
    "0x1.acf04de75bb57p-4",
    "0x1.18be77de289e9p-2",
    "0x1.6f7faa105177dp-1",
    "0x1.e10fe120f0153p+0",
    "0x1.3adbf396a9db6p+2",
    "0x1.9c27f13de0a52p+3",
    "0x1.0dc2767b9355ep+5",
    "0x1.611eb391a207cp+6",
    "0x1.ce3d6fbb8f711p+7",
    "0x1.2e8a3d5a74ec5p+9",  # 605.0799973555482
]

# the time-1 map of roof 1 + 0.2 cos(2 pi x1), whose leaves climb and
# cross the seam at varying heights
TRIG_ROOF_ARCLENGTHS = [
    "0x1.b1f3a06132914p-4",
    "0x1.1a71a948c9eb6p-2",
    "0x1.79638d0239fcep-1",
    "0x1.e21c925770634p+0",
    "0x1.0af30fdca16d3p+2",
    "0x1.541965cde4dfbp+3",
]


# the t = 2 point of flow_family_sweep.json: each of its 95 passes
# bisects every edge, 2,621,400 edges in all
FLOW_FAMILY_T2_ARCLENGTHS = [
    "0x1.18be77de289ebp-2",
    "0x1.e10fe120f00aep+0",
    "0x1.9c27f13de0d65p+3",
    "0x1.611eb391a1cd1p+6",
    "0x1.2e8a3d5a74ed7p+9",
    "0x1.03347ae0bc6c1p+12",
]


@pytest.mark.parametrize("epsilon", [0.0, 0.04])
def test_continuity_member_arclengths_are_golden(epsilon):
    cfg = config.parse_config(
        json.loads((CONFIG_DIR / "continuity_center_shear.json").read_text())
    )
    sys = config.system_from_config(
        replace(
            cfg.system,
            kind="perturbed",
            epsilon=epsilon,
            shape=cfg.shape,
            harmonics=cfg.harmonics,
            direction=cfg.direction,
        )
    )
    curve = unstable_rate_estimate(sys, cfg.x, cfg.delta, cfg.N_schedule)
    assert [n for n, _ in curve.arclengths] == list(range(1, 11))
    assert [length.hex() for _, length in curve.arclengths] == CONTINUITY_ARCLENGTHS


def test_trig_roof_arclengths_are_golden(flow_trig):
    sys = systems.TimeTMapHandle(flow_trig, 1.0)
    curve = unstable_rate_estimate(sys, (0.2, 0.3, 0.37), 0.02, range(1, 7))
    assert [length.hex() for _, length in curve.arclengths] == TRIG_ROOF_ARCLENGTHS


def test_flow_family_t2_arclengths_are_golden():
    cfg = config.parse_config(json.loads((CONFIG_DIR / "flow_family_sweep.json").read_text()))
    point = config.apply_grid_point(cfg.base, {"t": 2.0})
    sys = config.system_from_config(point.system)
    curve = unstable_rate_estimate(sys, point.x, point.delta, point.N_schedule)
    assert [n for n, _ in curve.arclengths] == list(range(1, 7))
    assert [length.hex() for _, length in curve.arclengths] == FLOW_FAMILY_T2_ARCLENGTHS
