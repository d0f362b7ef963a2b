import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import entroflow
from entroflow import foliation, systems
from entroflow.config import parse_config, system_from_config
from entroflow.foliation import (
    DENSITY_RADIUS_BOUND,
    _bisection_passes,
    _canonical_point,
    _lifted_density_samples,
    _nearest_distances,
    _suspension_leaf_points,
    build_product_box,
    center_holonomy,
    center_nonexpansion_check,
    center_segment,
    density_check,
    holonomy_equivariance_gap,
    stable_segment,
    unstable_segment,
)
from entroflow.growth import grow_segment
from entroflow.systems import BaseShear, CenterShear, PerturbedHandle, TimeTMapHandle

from conftest import LOG_LAMBDA

LAMBDA = math.exp(LOG_LAMBDA)
CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def line_residual(points, origin, direction):
    """Worst distance from wrapped points to the line origin + t*direction."""
    diffs = systems.wrap_diff(points, origin)
    direction = direction / np.linalg.norm(direction)
    along = diffs @ direction
    return float(np.max(np.linalg.norm(diffs - np.outer(along, direction), axis=1)))


def test_unstable_segment_lies_on_eigenline(cat):
    x = np.array([0.2, 0.3])
    seg = unstable_segment(cat, x, 0.05)
    assert seg.kind == "unstable"
    assert seg.arclength == pytest.approx(0.1, abs=1e-12)
    vals, vecs = np.linalg.eig(np.array([[2.0, 1.0], [1.0, 1.0]]))
    v_u = vecs[:, np.argmax(vals)].real
    assert line_residual(seg.points, x, v_u) < 1e-9


def test_stable_segment_contracts(cat):
    x = np.array([0.2, 0.3])
    seg = stable_segment(cat, x, 0.05)
    assert seg.kind == "stable"
    length = seg.arclength
    pts = seg.points
    for _ in range(3):
        pts = cat.step(pts)
    spread = float(np.max(np.linalg.norm(systems.wrap_diff(pts, pts[0]), axis=1)))
    assert spread < length / LAMBDA ** 2


def test_suspension_unstable_segment_stays_level(time1):
    x = np.array([0.2, 0.3, 0.37])
    seg = unstable_segment(time1, x, 0.05)
    assert np.allclose(seg.points[:, 2], 0.37, atol=1e-12)
    assert seg.arclength == pytest.approx(0.1, abs=1e-10)


def test_center_segment_is_flow_arc(time1):
    x = np.array([0.2, 0.3, 0.1])
    seg = center_segment(time1, x, 0.5)
    assert seg.kind == "center"
    assert seg.arclength == pytest.approx(0.5, abs=1e-12)
    fl = time1.suspension
    expect = np.stack([fl.flow(x, t) for t in np.linspace(0, 0.5, len(seg.points))])
    assert float(np.max(time1.space.distance(seg.points, expect))) < 1e-10


def test_center_segment_cap(time1):
    with pytest.raises(ValueError, match="capped"):
        center_segment(time1, np.array([0.2, 0.3, 0.1]), 2.5)


# NaN passed the cap and died in int() with "cannot convert float NaN to
# integer"
@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
def test_center_segment_rejects_a_nonfinite_length_by_name(time1, length):
    with pytest.raises(ValueError, match=rf"^length must be finite and is capped at \+-2\.0, got {length}$"):
        center_segment(time1, np.array([0.2, 0.3, 0.1]), length)


def test_holonomy_identity_offset(time1):
    x = np.array([0.2, 0.3, 0.4])
    seg = unstable_segment(time1, x, 0.05)
    out = center_holonomy(time1, x, x, seg.points, depth=3)
    assert float(np.max(time1.space.distance(out, seg.points))) < 1e-12


def test_holonomy_is_vertical_translation_constant_roof(time1):
    x = np.array([0.2, 0.3, 0.4])
    y = time1.suspension.flow(x, 0.3)
    seg = unstable_segment(time1, x, 0.05)
    out = center_holonomy(time1, x, y, seg.points, depth=4)
    expect = time1.suspension.flow(seg.points, 0.3)
    assert float(np.max(time1.space.distance(out, expect))) < 1e-10


def sheared(time1, frac=0.5):
    shape = CenterShear()
    eps_max = 0.5 / shape.lipschitz(1.0)
    return PerturbedHandle(time1, frac * eps_max, shape)


def test_holonomy_depth_consistency_perturbed(time1):
    handle = sheared(time1)
    x = np.array([0.2, 0.3, 0.4])
    y = handle.reference_flow.flow(x, 0.3)
    seg = unstable_segment(handle, x, 0.05)
    d4 = center_holonomy(handle, x, y, seg.points, depth=4)
    d5 = center_holonomy(handle, x, y, seg.points, depth=5)
    assert float(np.max(handle.distance(d4, d5))) <= 1e-7


def test_holonomy_equivariance_perturbed(time1):
    handle = sheared(time1)
    x = np.array([0.2, 0.3, 0.4])
    y = handle.reference_flow.flow(x, 0.3)
    seg = unstable_segment(handle, x, 0.05)
    gap = holonomy_equivariance_gap(handle, x, y, seg.points, depth=4)
    assert gap <= 1e-6


@pytest.mark.parametrize("depth", [4, 5])
def test_holonomy_is_the_flow_on_a_variable_roof(depth, flow_trig):
    # the flow commutes with the time-1 map, so transport to the unstable
    # leaf of y = flow(x, 0.3) is flow for time 0.3, on the curved leaves
    # of the trig roof as on the flat ones
    handle = TimeTMapHandle(flow_trig, 1.0)
    x = np.array([0.2, 0.3, 0.4])
    y = flow_trig.flow(x, 0.3)
    u = unstable_segment(handle, x, 0.05).points
    out = center_holonomy(handle, x, y, u, depth)
    assert float(np.max(handle.space.distance(out, flow_trig.flow(u, 0.3)))) <= 1e-12


def test_holonomy_refuses_a_transported_extent_beyond_the_chart(time1):
    # one step back shrinks the offsets +-0.25 to about 0.095, within the
    # chart, but flowing them onto the leaf of y crosses the seam forward
    # and stretches them back to 0.25; two steps back end at 0.095
    fl = time1.reference_flow
    x = np.array([0.2, 0.3, 0.9])
    y = fl.flow(x, 0.3)
    u = _suspension_leaf_points(fl, x, [-0.25, 0.0, 0.25])
    with pytest.raises(
        ValueError, match=r"^transported unstable extent 0\.25 exceeds the local chart radius 0\.2;"
    ):
        center_holonomy(time1, x, y, u, 1)
    out = center_holonomy(time1, x, y, u, 2)
    assert float(np.max(time1.space.distance(out, fl.flow(u, 0.3)))) <= 1e-12


def test_holonomy_depth_validation(time1):
    x = np.array([0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="depth"):
        center_holonomy(time1, x, x, x[None, :], depth=0)


def test_nonexpansion_time_t_exact(time1):
    report = center_nonexpansion_check(time1, samples=40, horizon=50)
    assert report.max_ratio_forward <= 1.0 + 1e-9
    assert report.max_ratio_backward <= 1.0 + 1e-9
    assert report.passed
    assert report.horizon == 50


def test_nonexpansion_variable_roof_within_roof_ratio(flow_trig):
    handle = TimeTMapHandle(flow_trig, 1.0)
    report = center_nonexpansion_check(handle, samples=40, horizon=50)
    bound = flow_trig.roof.roof_max / flow_trig.roof.roof_min + 0.01
    assert max(report.max_ratio_forward, report.max_ratio_backward) <= bound


@pytest.mark.parametrize(
    "eps, forward, backward",
    [
        (0.01, 6.612441460198617, 6.561285908647183),
        (0.04, 8.096106199922499, 9.316787577054223),
    ],
)
def test_nonexpansion_sheared_ratios_pinned(time1, eps, forward, backward):
    # reference ratios from the explicit offset recursion
    # s += eps (sigma(h + s) - sigma(h)) and its own fixed-point inverse
    # (time-1 map, roof 1, seed 0)
    handle = PerturbedHandle(time1, eps, CenterShear())
    report = center_nonexpansion_check(handle, samples=100, horizon=50, rng_seed=0)
    assert report.max_ratio_forward == pytest.approx(forward, rel=1e-12)
    assert report.max_ratio_backward == pytest.approx(backward, rel=1e-12)
    assert not report.passed


def test_nonexpansion_rejects_plain_toral(cat):
    with pytest.raises(ValueError):
        center_nonexpansion_check(cat, samples=5, horizon=5)


def test_product_box_reconstruction(time1, flow_trig):
    # each a_sample sits on the center leaf of its unstable point x_u at
    # flow time c, and on the unstable leaf of flow(x, c) at its eigenline
    # coordinate; x_u is the closed-form leaf of the center at the box's
    # eigenline offsets, so on the trig roof the samples meet the curved
    # leaf to rounding (read off a polyline they missed it by about 1e-7).
    # x = (0.7, 0.1, 0.9) at delta 0.04 puts the box across the trig
    # roof's seam
    cases = [time1, PerturbedHandle(time1, 0.04, CenterShear()), TimeTMapHandle(flow_trig, 1.0)]
    for sys, x, delta in itertools.product(cases, [(0.2, 0.3, 0.4), (0.7, 0.1, 0.9)], [0.04, 0.01]):
        fl = sys.reference_flow
        box = build_product_box(sys, np.array(x), delta, 5)
        k = box.u_offsets.size
        assert box.a_samples.shape == (k * box.c_offsets.size, 3)
        assert box.d_samples.shape[0] == box.a_samples.shape[0] * box.s_offsets.size
        x_u = _suspension_leaf_points(fl, box.center, box.u_offsets)
        v = fl.base_map.unstable_direction
        a = box.a_samples.reshape(k, box.c_offsets.size, 3)
        for j, c in enumerate(box.c_offsets):
            for i in range(k):
                assert abs(fl.center_time(x_u[i], a[i, j]) - c) <= 1e-12
            y = fl.flow(box.center, c)
            tau = sys.space.displacement(y, a[:, j])[:, :2] @ v
            on_leaf = _suspension_leaf_points(fl, y, tau)
            assert float(np.max(sys.space.distance(on_leaf, a[:, j]))) <= 1e-12


def _stable_fibers_one_by_one(fl, a_samples, s_offs):
    """The product box's stable fibers, built one base point at a time with
    the height series of a single base point (the loop the batched build
    replaced)."""
    base_map = fl.base_map
    v = base_map.stable_direction
    eig = float(v @ (base_map.matrix.astype(float) @ v))
    lip = fl.roof.lipschitz()
    fibers = []
    for a in a_samples:
        offset = np.zeros(s_offs.shape)
        if not fl.roof.is_constant:
            bj = a[None, :2]
            scale = 1.0
            for _ in range(400):
                # each offset stops once its own term is below 1e-13
                live = lip * np.abs(s_offs) * abs(scale) >= 1e-13
                if not live.any():
                    break
                disp = systems.wrap_unit(bj + (s_offs[live, None] * scale) * v[None, :])
                offset[live] = offset[live] + -(fl.roof.value(bj)[0] - fl.roof.value(disp))
                bj = base_map.step(bj)
                scale *= eig
        base = systems.wrap_unit(a[None, :2] + s_offs[:, None] * v[None, :])
        h = a[2] + offset
        fibers.append(fl.canonicalize(np.concatenate([base, h[:, None]], axis=1)))
    return np.concatenate(fibers, axis=0)


@pytest.mark.parametrize("delta", [0.05, 0.01])
@pytest.mark.parametrize("roof", ["constant", "trig"])
def test_product_box_fibers_match_the_per_row_build(roof, delta, time1, flow_trig):
    # all fibers in one call give the bytes of one call per base point; on
    # the trig roof the height series runs several terms
    sys = time1 if roof == "constant" else TimeTMapHandle(flow_trig, 1.0)
    fl = sys.reference_flow
    for x in ((0.2, 0.3, 0.37), (0.7, 0.1, 0.9)):
        box = build_product_box(sys, np.array(x), delta, 8)
        want = _stable_fibers_one_by_one(fl, box.a_samples, box.s_offsets)
        assert box.d_samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("stable", [False, True])
@pytest.mark.parametrize("x", [(0.2, 0.3, 0.37), (0.7, 0.1, 0.9)])
def test_a_leaf_offset_gives_the_same_point_alone_and_in_a_batch(x, stable, flow_trig):
    # each offset truncates its own height series, so a small offset keeps
    # its bits beside a large one (0.01 beside 8.0 once moved by 1.8e-14)
    rng = np.random.default_rng(3)
    taus = np.concatenate([[0.01, 8.0, -0.3, 0.0], rng.uniform(-8.0, 8.0, 24) * rng.random(24) ** 4])
    batch = _suspension_leaf_points(flow_trig, np.array(x), taus, stable=stable)
    for tau, point in zip(taus, batch, strict=True):
        alone = _suspension_leaf_points(flow_trig, np.array(x), [tau], stable=stable)[0]
        assert alone.tobytes() == point.tobytes()


def _bisected_one_by_one(fl, x, taus, stable, spacing):
    """Leaf parameters and points of a recursive per-edge bisection of the
    closed-form leaf over the parameter grid taus, every point built
    alone; an edge is split at its parameter midpoint until its chord is
    within spacing."""
    space = fl.space

    def point(t):
        return _suspension_leaf_points(fl, x, [t], stable=stable)[0]

    def chain(ta, pa, tb, pb, depth):
        if float(space.distance(pa, pb)) <= spacing or depth >= 64:
            return [(tb, pb)]
        tm = 0.5 * (ta + tb)
        pm = point(tm)
        return chain(ta, pa, tm, pm, depth + 1) + chain(tm, pm, tb, pb, depth + 1)

    pts = [point(t) for t in taus]
    out = [(taus[0], pts[0])]
    for i in range(taus.size - 1):
        out.extend(chain(taus[i], pts[i], taus[i + 1], pts[i + 1], 0))
    return np.array([t for t, _ in out]), np.stack([p for _, p in out])


@pytest.mark.parametrize("radius, spacing", [(1.0, 0.02), (8.0, 0.01)])
@pytest.mark.parametrize("stable", [False, True])
@pytest.mark.parametrize("x", [(0.2, 0.3, 0.37), (0.7, 0.1, 0.9)])
def test_bisection_passes_match_recursive_bisection_on_a_curved_leaf(
    x, stable, radius, spacing, flow_trig
):
    # the passes batch every pass's midpoints through the closed form; the
    # reference builds each point alone, edge by edge
    fl = flow_trig
    x = np.array(x)
    taus = np.linspace(-radius, radius, int(math.ceil(2.0 * radius / spacing)) + 1)
    pre, img, chords = _bisection_passes(
        taus[:, None],
        lambda t: _suspension_leaf_points(fl, x, t[:, 0], stable=stable),
        lambda a, b: 0.5 * (a + b),
        fl.space,
        spacing,
    )
    want_taus, want_pts = _bisected_one_by_one(fl, x, taus, stable, spacing)
    assert pre[:, 0].tobytes() == want_taus.tobytes()
    assert img.tobytes() == want_pts.tobytes()
    assert np.array_equal(chords, fl.space.distance(want_pts[:-1], want_pts[1:]))
    assert img.shape[0] > taus.size


def test_product_box_delta_cap(time1):
    with pytest.raises(ValueError, match="cap"):
        build_product_box(time1, np.array([0.2, 0.3, 0.4]), 0.2, 5)


def test_density_covering_radius_shrinks(time1):
    probes = time1.space.grid(8)
    x = np.array([0.2, 0.3, 0.4])
    r1 = density_check(time1, x, 1.0, 1.0, probes)
    r2 = density_check(time1, x, 1.0, 2.0, probes)
    assert r2.covering_radius <= r1.covering_radius + 1e-12
    assert r1.sample_count < r2.sample_count
    assert r1.probe_count == probes.shape[0]


def test_unstable_segment_radius_validation(cat):
    with pytest.raises(ValueError, match=">= 0"):
        unstable_segment(cat, np.array([0.2, 0.3]), -0.1)


def test_segment_with_a_nan_vertex_is_rejected(cat):
    pts = unstable_segment(cat, np.array([0.2, 0.3]), 0.05).points.copy()
    good = foliation._segment("unstable", cat.space, pts, 0.1)
    pts[7] = np.nan
    # the NaN row makes two chords and every later arc coordinate NaN
    with pytest.raises(ValueError, match="strictly increasing"):
        foliation._segment("unstable", cat.space, pts, 0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        foliation.LeafSegment(
            "unstable", good.points, np.where(good.arc_coords > 0.05, np.nan, good.arc_coords),
            0.1, cat.space, good.chords,
        )
    chords = good.chords.copy()
    chords[3] = np.nan
    with pytest.raises(ValueError, match="spacing bound"):
        foliation.LeafSegment("unstable", good.points, good.arc_coords, 0.1, cat.space, chords)


def reference_point_at(seg, arc):
    """Linear interpolation between the vertices around a clipped arc."""
    if seg.points.shape[0] == 1:
        return seg.points[0].copy()
    a = float(np.clip(arc, 0.0, seg.arclength))
    i = int(np.searchsorted(seg.arc_coords, a, side="right")) - 1
    i = min(max(i, 0), seg.points.shape[0] - 2)
    w = (a - seg.arc_coords[i]) / (seg.arc_coords[i + 1] - seg.arc_coords[i])
    return seg.space.lerp(seg.points[i], seg.points[i + 1], w)


@pytest.mark.parametrize("space", ["torus", "mapping_torus"])
@pytest.mark.parametrize("radius", [0.05, 0.0])
def test_point_at_matches_reference(space, radius, cat, time1):
    sys, x = (cat, [0.2, 0.3]) if space == "torus" else (time1, [0.2, 0.3, 0.99])
    seg = unstable_segment(sys, np.array(x), radius)
    L = seg.arclength
    arcs = np.concatenate(
        [[-0.1, -1e-18, 0.0], seg.arc_coords, np.linspace(0.0, L, 7), [L, L + 1e-9, 2.0]]
    )
    stacked = np.stack([seg.point_at(a) for a in arcs])
    for a, p in zip(arcs, stacked):
        assert np.array_equal(p, reference_point_at(seg, a))
    assert np.array_equal(seg.point_at(arcs), stacked)
    # two arcs with distinct weights on the 2-torus: a (k,) weight vector
    # would broadcast across the coordinates instead of the rows
    pair = np.array([0.3, 0.7]) * L
    expect = np.stack([seg.point_at(a) for a in pair])
    assert np.array_equal(seg.point_at(pair), expect)
    assert seg.point_at(arcs[:1]).shape == (1, seg.points.shape[1])


@pytest.mark.parametrize("kind", ["eigenline", "perturbed", "center"])
def test_segment_chords_match_vertices(kind, cat, time1):
    x = np.array([0.2, 0.3, 0.37])
    if kind == "eigenline":
        sys, seg = cat, unstable_segment(cat, x[:2], 0.05)
    elif kind == "perturbed":
        sys = PerturbedHandle(time1, 0.04, CenterShear())
        seg = unstable_segment(sys, x, 0.05)
    else:
        sys, seg = time1, center_segment(time1, x, 0.5)
    chords = sys.space.distance(seg.points[:-1], seg.points[1:])
    assert np.array_equal(seg.chords, chords)


def test_perturbed_leaf_is_centred_on_x(time1):
    # radius 0.0561 with spacing 0.002: an odd interval count, so x is
    # the midpoint of the eigenline grid, not one of its vertices
    handle = PerturbedHandle(time1, 0.03, CenterShear())
    x = np.array([0.2, 0.3, 0.4])
    seg = unstable_segment(handle, x, 0.0561, spacing=0.002)
    assert seg.arclength == pytest.approx(2 * 0.0561, abs=1e-12)
    assert float(handle.distance(seg.point_at(0.0561), x)) < 1e-12


SHEARS = {
    "center": CenterShear(),
    "center_multi": CenterShear(harmonics=((1, 1.0, 0.0), (3, 0.2, 0.5))),
    "base": BaseShear(),
    "base_multi": BaseShear(harmonics=((1, 1.0), (2, 0.4))),
    "base_oblique": BaseShear(direction=(0.3, -0.8)),
}


def _dense_arc_to(fl, x, stable, sign, radius, end):
    """Arclength of the closed-form leaf from x to its point `end`, by the
    chords of a uniform grid of 10^5 eigenline parameters on
    [0, 3 * sign * radius]; the distance from `end` to the grid chord it
    is projected on, over that chord's sagitta at curvature 100; and the
    number of seams the leaf crosses before it (a grid step whose chart
    heights jump by more than half)."""
    space = fl.space
    taus = sign * np.linspace(0.0, 3.0 * radius, 10**5)
    dense = _suspension_leaf_points(fl, x, taus, stable=stable)
    arc = np.concatenate([[0.0], np.cumsum(space.distance(dense[:-1], dense[1:]))])
    i = min(int(np.argmin(space.distance(dense, end[None, :]))), taus.size - 2)
    step = space.displacement(dense[i : i + 1], dense[i + 1 : i + 2])[0]
    to_end = space.displacement(dense[i : i + 1], end[None, :])[0]
    along = float(to_end @ step) / float(np.linalg.norm(step))
    off = float(np.linalg.norm(to_end - along * step / np.linalg.norm(step)))
    sagitta = 100.0 * float(step @ step) / 8.0
    crossings = int(np.count_nonzero(np.abs(np.diff(dense[: i + 2, 2])) > 0.5))
    return arc[i] + along, off / sagitta, crossings


@pytest.mark.parametrize("stable", [False, True])
@pytest.mark.parametrize("radius", [0.05, 0.5, 8.0])
@pytest.mark.parametrize("x", [(0.2, 0.3, 0.37), (0.7, 0.1, 0.9), (0.5, 0.5, 0.99)])
def test_variable_roof_leaf_sides_have_arclength_radius(x, radius, stable, flow_trig):
    # every chord within the spacing and none degenerate; each side's
    # chords sum to radius, through x, and agree with a dense sampling of
    # the closed-form curve.  Two things part them: the chord deficit of a
    # curve of curvature up to 100, (100 * spacing)^2 / 24 relative, and
    # the seams.  The chart distance takes the nearer lift, and a seam
    # lift scales the base by the eigenvalue, so an edge across a seam is
    # measured in one sheet's chart while the dense steps measure each
    # part in its own: that edge may differ by (lambda - 1) * spacing
    sys = TimeTMapHandle(flow_trig, 1.0)
    fl = sys.reference_flow
    spacing = min(radius / 20.0, 0.002)
    build = stable_segment if stable else unstable_segment
    seg = build(sys, np.array(x), radius, spacing=spacing)
    assert float(np.max(seg.chords)) <= spacing
    assert float(np.min(seg.chords)) >= 1e-6 * spacing
    center = _canonical_point(sys, np.array(x))
    at_x = np.flatnonzero(np.all(seg.points == center, axis=1))
    assert at_x.size == 1
    sides = {-1.0: (seg.arc_coords[at_x[0]], seg.points[0]),
             1.0: (seg.arclength - seg.arc_coords[at_x[0]], seg.points[-1])}
    for sign, (length, end) in sides.items():
        assert abs(length - radius) <= 1e-9
        dense, off, crossings = _dense_arc_to(fl, center, stable, sign, radius, end)
        assert off <= 1.0
        bound = 1e-4 * radius + crossings * (LAMBDA - 1.0) * spacing + 1e-9
        assert abs(dense - length) <= bound


def eigenline_offsets(space, through, pts, v):
    """Worst offset of pts from the horizontal line through + tau*v,
    perpendicular to v in the base and in height."""
    d = space.displacement(through, pts)
    perp = d[:, :2] - np.outer(d[:, :2] @ v, v)
    return float(np.max(np.linalg.norm(perp, axis=1))), float(np.max(np.abs(d[:, 2])))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", list(SHEARS))
@pytest.mark.parametrize("frac", [0.3, 0.9])
def test_perturbed_map_preserves_closed_form_leaves(t, shape, frac, flow_const):
    # the closed-form leaves are exact for the perturbed map: F carries an
    # unstable segment onto the unstable eigenline through F(x) at F(x)'s
    # height, and F^-1 a stable segment onto the stable one through F^-1(x)
    shear = SHEARS[shape]
    eps = frac * 0.5 / shear.lipschitz(flow_const.roof.constant)
    handle = PerturbedHandle(TimeTMapHandle(flow_const, t), eps, shear)
    base_map = flow_const.base_map
    x = np.array([0.2, 0.3, 0.37])
    for seg, move, v in (
        (unstable_segment(handle, x, 0.02), handle.step, base_map.unstable_direction),
        (stable_segment(handle, x, 0.02), handle.step_back, base_map.stable_direction),
    ):
        perp, dh = eigenline_offsets(handle.space, move(x[None, :])[0], move(seg.points), v)
        assert perp <= 1e-12 and dh <= 1e-12


@pytest.mark.parametrize("kind", ["torus", "time_t", "variable_roof", "perturbed", "grown"])
def test_leaf_points_are_canonical(kind, cat, time1, flow_trig):
    # segments take their points as they are: every construction must
    # hand over points that canonicalize leaves bitwise unchanged
    x = np.array([0.2, 0.3, 0.95])
    if kind == "torus":
        sys, x = cat, x[:2]
    elif kind == "time_t":
        sys = time1
    elif kind == "variable_roof":
        sys = TimeTMapHandle(flow_trig, 1.0)
    else:  # perturbed, and a segment grown by it
        sys = PerturbedHandle(time1, 0.04, CenterShear())
    segs = [unstable_segment(sys, x, 0.05), stable_segment(sys, x, 0.05)]
    if kind == "grown":
        segs = [grow_segment(sys, segs[0], 3, 0.005)]
    elif kind != "torus":
        segs.append(center_segment(sys, x, 1.5))
    for seg in segs:
        assert np.array_equal(sys.space.canonicalize(seg.points), seg.points)


def test_base_point_dimension_must_match(cat, time1):
    with pytest.raises(ValueError, match="dimension 1 given to a system of dimension 2"):
        _canonical_point(cat, [0.2])
    with pytest.raises(ValueError, match="dimension 2 given to a system of dimension 3"):
        unstable_segment(time1, [0.2, 0.3], 0.05)
    with pytest.raises(ValueError, match="dimension 3 given to a system of dimension 2"):
        unstable_segment(cat, [[0.2, 0.3, 0.4]], 0.05)


def test_density_check_never_imports_scipy():
    # the nearest-sample search is plain numpy; scipy must not be loaded
    src = str(pathlib.Path(entroflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "from entroflow import foliation, systems\n"
        "fl = systems.SuspensionFlow([[2, 1], [1, 1]], systems.Roof(1.0))\n"
        "h = systems.TimeTMapHandle(fl, 1.0)\n"
        "rep = foliation.density_check(h, [0.2, 0.3, 0.4], 0.1, 0.5, h.space.grid(3))\n"
        "print(rep.probe_count, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["27", "False"]


# --------------------------------------------------------------------------
# the nearest-sample search of the density check


def _brute_nearest(points, probes):
    """Nearest distance from each probe over every point, with the search's
    arithmetic: squares summed over axes 0, 1, 2, root of the minimum."""
    diff = probes[:, None, :] - points[None, :, :]
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2]
    return np.sqrt(d2.min(axis=1))


@pytest.mark.parametrize("name", ["foliation_check", "foliation_check_perturbed"])
def test_density_rows_of_the_foliation_configs_are_pinned(name):
    # the covering radii the cKDTree search gave; the perturbed config reads
    # only its reference flow, so both give the same rows
    cfg = parse_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    handle = system_from_config(cfg.system)
    probes = handle.space.grid(cfg.probe_resolution)
    covers = [
        density_check(handle, cfg.x, cfg.center_radius, float(radius), probes).covering_radius
        for radius in cfg.leaf_radii
    ]
    assert covers == [0.2545420724883544, 0.1606382907488285, 0.0987000105922801, 0.03970257324478099]


@pytest.mark.parametrize("leaf_radius", [1.0, 8.0])
@pytest.mark.parametrize("roof", ["constant", "trig"])
def test_nearest_distances_match_ckdtree(roof, leaf_radius, time1, flow_trig):
    spatial = pytest.importorskip("scipy.spatial")
    handle = time1 if roof == "constant" else TimeTMapHandle(flow_trig, 1.0)
    fl = handle.reference_flow
    lifted = _lifted_density_samples(fl, np.array([0.2, 0.3, 0.4]), 1.0, leaf_radius)
    probes = handle.space.grid(12)
    want, _ = spatial.cKDTree(lifted).query(probes, k=1)
    assert np.array_equal(_nearest_distances(lifted, probes), want)


def test_nearest_distances_widen_to_a_lone_sample(time1):
    # one sample: most probes find no lift within a cube or two, and the last
    # two probes sit outside the lifts' bounding box, one beyond any cube
    # index an int64 holds
    fl = time1.reference_flow
    lifted = _lifted_density_samples(fl, np.array([0.2, 0.3, 0.4]), 0.0, 0.0)
    assert lifted.shape == (27, 3)
    probes = np.concatenate([time1.space.grid(5), [[3.0, -2.5, 4.0], [1e20, 0.5, 0.5]]])
    for probe in probes[-2:]:
        assert np.any(probe < lifted.min(axis=0)) or np.any(probe > lifted.max(axis=0))
    got = _nearest_distances(lifted, probes)
    assert np.array_equal(got, _brute_nearest(lifted, probes))
    assert got[-2] > 20 * DENSITY_RADIUS_BOUND
    rep = density_check(time1, [0.2, 0.3, 0.4], 0.0, 0.0, probes)
    assert rep.sample_count == 1 and rep.covering_radius == float(got.max())


@pytest.mark.parametrize(
    "probes, match",
    [
        (np.zeros((0, 3)), r"a nonempty \(P, 3\) array, got shape \(0, 3\)"),
        (np.zeros((4, 2)), r"a nonempty \(P, 3\) array, got shape \(4, 2\)"),
        (np.zeros((2, 2, 3)), r"a nonempty \(P, 3\) array, got shape \(2, 2, 3\)"),
        (np.array([[0.1, 0.2, math.nan]]), "finite"),
        (np.array([[0.1, math.inf, 0.3]]), "finite"),
    ],
    ids=["empty", "width-2", "3-d", "nan", "inf"],
)
def test_density_check_rejects_bad_probes(probes, match, time1):
    with pytest.raises(ValueError, match="^probe_points must be " + match):
        density_check(time1, [0.2, 0.3, 0.4], 1.0, 1.0, probes)


@pytest.mark.parametrize("name", ["center_radius", "leaf_radius"])
def test_density_check_rejects_a_negative_radius(name, time1):
    radii = {"center_radius": 1.0, "leaf_radius": 1.0, name: -1.0}
    with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
        density_check(time1, [0.2, 0.3, 0.4], probe_points=time1.space.grid(3), **radii)
