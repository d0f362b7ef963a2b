import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import entropy, foliation, systems
from entroflow.foliation import unstable_segment
from entroflow.growth import (
    GrowthCurve,
    VertexBudgetExceeded,
    continuity_probe,
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


def test_vertex_budget_error_payload():
    seg = unstable_segment(CAT, np.array([0.2, 0.3]), 0.05)
    with pytest.raises(VertexBudgetExceeded) as exc_info:
        grow_segment(CAT, seg, 8, spacing=0.005, vertex_budget=3000)
    err = exc_info.value
    assert err.budget == 3000
    assert err.needed > 3000
    assert err.reached_step == err.step_index - 1
    assert "completed" in str(err)


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
            centers=(np.zeros((0, 2)), np.zeros((0, 2))),
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
            centers=(np.zeros((2, 2)),),
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
    centers = curve.centers[0]
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


def test_continuity_probe_commuting_family_flat(time1):
    shape = CenterShear()
    curve = continuity_probe(
        lambda eps: PerturbedHandle(time1, eps, shape),
        (0.0, 0.02),
        (0.2, 0.3, 0.37),
        0.05,
        [1, 2, 3, 4, 5],
    )
    rates = [row[1] for row in curve.entries]
    assert rates[0] == pytest.approx(rates[1], abs=1e-12)
    assert curve.modulus == pytest.approx(0.0, abs=1e-12)
    for member in curve.curves:
        counts = [c for _, c in member.counts]
        assert counts == sorted(counts)


def test_continuity_probe_validation(time1):
    shape = CenterShear()
    family = lambda eps: PerturbedHandle(time1, eps, shape)
    with pytest.raises(ValueError, match="nonempty"):
        continuity_probe(family, (), (0.2, 0.3, 0.37), 0.05, [1, 2])
    with pytest.raises(TypeError, match="wrong_key"):
        continuity_probe(
            family, (0.0,), x=(0.2, 0.3, 0.37), delta=0.05, N_schedule=[1, 2], wrong_key=1
        )


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


def insert_refine_step(sys, pts, spacing, budget=None, step_index=1):
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
        if budget is not None and imgs.shape[0] + bad.size > budget:
            raise VertexBudgetExceeded(step_index, imgs.shape[0] + bad.size, budget)
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
    # budget: the same refusal at the same vertex count
    got_imgs = foliation.refine_step(sys, seg.points, spacing)[0]
    budget = got_imgs.shape[0] - 1
    with pytest.raises(VertexBudgetExceeded) as got_exc:
        foliation.refine_step(sys, seg.points, spacing, budget, step_index=4)
    with pytest.raises(VertexBudgetExceeded) as expect_exc:
        insert_refine_step(sys, seg.points, spacing, budget, step_index=4)
    assert str(got_exc.value) == str(expect_exc.value)
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


def test_continuity_probe_worker_count_does_not_change_curve(time1):
    shape = CenterShear()
    family = lambda eps: PerturbedHandle(time1, eps, shape)
    args = ((0.0, 0.01, 0.03), (0.2, 0.3, 0.37), 0.05, [1, 2, 3, 4])
    one = continuity_probe(family, *args)
    two = continuity_probe(family, *args, workers=2)
    assert one.entries == two.entries
    assert one.modulus == two.modulus
    for a, b in zip(one.curves, two.curves):
        assert a.counts == b.counts
        assert a.arclengths == b.arclengths
        for x, y in zip(a.centers + a.center_arcs, b.centers + b.center_arcs):
            assert np.array_equal(x, y)


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
