"""Unstable-disk growth and packing counts, the lower-bound route to entropy.

An unstable segment iterated forward stretches exponentially along its
leaf.  Packing the image with disjoint sub-disks in the leaf metric and
fitting log(count) against the step number recovers the expansion rate;
on the linear model systems the count table is an exact staircase of the
eigenvalue.  The same counts feed the disk-versus-box comparison and the
perturbation continuity probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import foliation
from .entropy import SampleCloud, _fork_map, _ols_line, entropy_estimate
from .foliation import VertexBudgetExceeded

DEFAULT_VERTEX_BUDGET = 10_000_000


def grow_segment(
    sys, seg, steps, spacing, vertex_budget=DEFAULT_VERTEX_BUDGET
):
    """Apply the map `steps` times to an unstable segment.

    The result is a polyline through the image with consecutive chords
    at most `spacing`.  Zero steps return the segment unchanged.
    """
    if seg.kind != "unstable":
        raise ValueError(f"grow_segment expects an unstable segment, got {seg.kind!r}")
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    spacing = float(spacing)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if steps == 0:
        return seg
    pts = seg.points
    for step_index in range(1, steps + 1):
        pts, chords = foliation.refine_step(
            sys, pts, spacing, vertex_budget, step_index
        )
    return foliation._segment("unstable", sys.space, pts, spacing, chords=chords)


def disk_center_arcs(arclength, two_delta):
    """Arc positions of a maximal left-to-right packing by radius-two_delta disks.

    Centers start half a disk in from the segment end and advance by one
    disk diameter, so consecutive centers sit 2*two_delta apart in arc.
    An arclength below two_delta fits no disk.
    """
    two_delta = float(two_delta)
    if two_delta <= 0:
        raise ValueError("two_delta must be positive")
    arclength = float(arclength)
    if arclength < two_delta:
        return np.empty(0)
    count = 1 + int(math.floor((arclength - two_delta) / (2.0 * two_delta) + 1e-12))
    return two_delta / 2.0 + 2.0 * two_delta * np.arange(count)


def count_disjoint_disks(seg, two_delta):
    """Greedy packing count along a segment, with the disk center points."""
    arcs = disk_center_arcs(seg.arclength, two_delta)
    if arcs.size == 0:
        return 0, np.empty((0, seg.points.shape[1]))
    return int(arcs.size), seg.point_at(arcs)


@dataclass(frozen=True, eq=False)
class GrowthCurve:
    """Packing counts of an iterated unstable disk and the fitted rate.

    counts holds rows (N, disjoint_disk_count); centers and center_arcs
    hold, per schedule entry, the packed disk centers and their arc
    positions along the grown segment.  Counts never decrease and center
    arcs stay at least 4*delta apart, both checked at construction.
    """

    base_point: tuple
    delta: float
    counts: tuple
    rate: float
    rate_stderr: float
    centers: tuple
    center_arcs: tuple
    arclengths: tuple

    def __post_init__(self):
        cs = [row[1] for row in self.counts]
        for a, b in zip(cs, cs[1:]):
            if b < a:
                raise ValueError(f"disk counts must be nondecreasing, got {a} -> {b}")
        gap = 4.0 * self.delta - 1e-9
        for (n, _), arcs in zip(self.counts, self.center_arcs):
            if arcs.size > 1 and float(np.min(np.diff(arcs))) < gap:
                raise ValueError(f"centers at N={n} closer than 4*delta in arc")

    def table(self):
        """Rows (N, count, log_count, arclength); log of a zero count is nan."""
        rows = []
        for (n, c), (_, length) in zip(self.counts, self.arclengths):
            rows.append((n, c, math.log(c) if c > 0 else math.nan, length))
        return rows


def fit_packing_counts(counts):
    """Rate fit of (N, count) packing rows: the least-squares slope of
    log(count) against N over the positive counts, and its stderr; both
    are 0 with fewer than two positive counts."""
    fit = [(n, math.log(c)) for n, c in counts if c > 0]
    if len(fit) < 2:
        return 0.0, 0.0
    rate, _, stderr, _ = _ols_line([f[0] for f in fit], [f[1] for f in fit])
    return rate, stderr


def unstable_rate_estimate(
    sys,
    x,
    delta,
    N_schedule,
    spacing=None,
    vertex_budget=DEFAULT_VERTEX_BUDGET,
):
    """Grow the radius-delta unstable disk at x and fit a rate to disk counts.

    At every N in the increasing schedule the grown segment is packed by
    disjoint radius-2*delta disks in the leaf metric; the rate is the
    least-squares slope of log(count) against N over the positive counts.
    """
    schedule = [int(n) for n in N_schedule]
    if not schedule:
        raise ValueError("N_schedule must be nonempty")
    if schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("N_schedule must be strictly increasing positive integers")
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spacing is None:
        spacing = delta / 10.0
    spacing = float(spacing)
    if spacing > delta / 10.0 + 1e-12:
        raise ValueError("spacing must be at most delta/10 to resolve the packing")
    x = np.asarray(x, dtype=float)
    seg = foliation.unstable_segment(sys, x, delta)
    two_delta = 2.0 * delta
    counts, lengths, centers, arcs = [], [], [], []
    prev = 0
    for n in schedule:
        try:
            seg = grow_segment(sys, seg, n - prev, spacing, vertex_budget)
        except VertexBudgetExceeded as exc:
            # re-key the step index to the absolute iterate number
            raise VertexBudgetExceeded(
                prev + exc.step_index, exc.needed, exc.budget
            ) from None
        prev = n
        cnt, pts = count_disjoint_disks(seg, two_delta)
        counts.append((n, cnt))
        lengths.append((n, seg.arclength))
        centers.append(pts)
        arcs.append(disk_center_arcs(seg.arclength, two_delta))
    rate, stderr = fit_packing_counts(counts)
    return GrowthCurve(
        base_point=tuple(float(v) for v in x),
        delta=delta,
        counts=tuple(counts),
        rate=rate,
        rate_stderr=stderr,
        centers=tuple(centers),
        center_arcs=tuple(arcs),
        arclengths=tuple(lengths),
    )


@dataclass(frozen=True, eq=False)
class DiskBoxReport:
    """Entropy rates from a product box versus an unstable disk at one scale."""

    delta: float
    disk_rate: float
    box_rate: float
    difference: float
    tolerance: float
    passed: bool
    disk_estimate: object
    box_estimate: object


def disk_vs_box_comparison(
    sys,
    x,
    delta,
    n_schedule,
    samples_per_axis=10,
    disk_samples=1000,
    order_seed=0,
    tolerance=0.1,
):
    """Compare separated-set rates of a product box and an unstable disk.

    Both clouds are anchored at x with scale delta: the box cloud is the
    full product-box sample grid, the disk cloud samples the radius-delta
    unstable segment uniformly in arclength.  Each cloud runs through the
    same entropy estimate schedules; counts run at separation scale
    delta/2, one notch below the box scale, so the box interior is
    resolved.  The report passes when the two rates differ by at most
    the tolerance.
    """
    x = np.asarray(x, dtype=float)
    delta_schedule = (float(delta) / 2.0,)
    box = foliation.build_product_box(sys, x, delta, samples_per_axis)
    box_cloud = SampleCloud(sys.space, box.d_samples)
    seg = foliation.unstable_segment(sys, x, delta)
    disk_pts = seg.point_at(np.linspace(0.0, seg.arclength, int(disk_samples)))
    disk_cloud = SampleCloud(sys.space, disk_pts)
    disk_est = entropy_estimate(sys, disk_cloud, n_schedule, delta_schedule, order_seed)
    box_est = entropy_estimate(sys, box_cloud, n_schedule, delta_schedule, order_seed)
    diff = box_est.rate - disk_est.rate
    return DiskBoxReport(
        delta=float(delta),
        disk_rate=disk_est.rate,
        box_rate=box_est.rate,
        difference=diff,
        tolerance=float(tolerance),
        passed=abs(diff) <= float(tolerance),
        disk_estimate=disk_est,
        box_estimate=box_est,
    )


@dataclass(frozen=True, eq=False)
class ContinuityCurve:
    """Rate of each family member plus the modulus over consecutive entries."""

    entries: tuple
    modulus: float
    curves: tuple


def continuity_probe(family, eps_schedule, x, delta, N_schedule, workers=1):
    """Rate curve of a one-parameter family of systems.

    family maps a parameter value to a system handle; every member is
    probed by unstable_rate_estimate at (x, delta, N_schedule) from the
    same base chart coordinates, which for the built-in families is the
    nearest-point transport between perturbed systems.  The modulus is
    the largest rate jump between consecutive parameter values.

    Members are independent, so workers > 1 farms them to forked
    processes; each is deterministic, hence the curve is identical for
    any worker count.
    """
    eps_values = [float(e) for e in eps_schedule]
    if not eps_values:
        raise ValueError("eps_schedule must be nonempty")
    curves = _fork_map(
        lambda eps: unstable_rate_estimate(family(eps), x, delta, N_schedule),
        eps_values,
        workers,
    )
    entries = [(eps, c.rate, c.rate_stderr) for eps, c in zip(eps_values, curves)]
    rates = [row[1] for row in entries]
    modulus = max(
        (abs(b - a) for a, b in zip(rates, rates[1:])), default=0.0
    )
    return ContinuityCurve(tuple(entries), modulus, tuple(curves))
