"""Invariant-leaf machinery for the model systems.

Unstable and center leaf segments as polylines, center holonomy between
unstable leaves, local product-structure boxes, and the two finite checks
used by the experiment suite: center non-expansion under iteration and the
covering-radius surrogate for density of center-saturated unstable leaves.

Leaves are exact eigenlines on the torus.  On a mapping torus the unstable
leaf of a time-t map is the base eigenline plus a geometrically convergent
height series (zero for constant roofs).  One routine refines polylines:
the bisection passes of refine_step, which grow unstable disks under the
map and, on eigenline parameters under the closed form, build the curved
leaves of a variable roof.  Perturbed maps share the leaves
of their reference: both shear shapes move a point by an amount that
depends on its height alone, so they carry each horizontal eigenline
segment {(x + tau v, h)} onto another by a translation, and the reference
time-t map does the same up to the base matrix at the seam, which keeps
each eigenline family.  The perturbed map thus stretches the unstable
segments and shrinks the stable ones as its reference does, and they are
its exact leaves.  Center leaves are flow lines of the reference
suspension flow, and center arclength is flow time (the chart flow moves
at unit vertical speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import PerturbedHandle, TimeTMapHandle, ToralMapHandle, _finite, _positive_whole, wrap_unit

__all__ = [
    "LeafSegment",
    "ProductBox",
    "CenterExpansionReport",
    "DensityReport",
    "unstable_segment",
    "stable_segment",
    "center_segment",
    "center_holonomy",
    "holonomy_equivariance_gap",
    "center_nonexpansion_check",
    "build_product_box",
    "density_check",
]


# The caps and bounds have no canonical values; these are the ones the
# test suite and the packaged experiments run with.

#: longest center arc handed out
CENTER_RADIUS_CAP = 2.0
#: expected lower and upper bounds on image center arcs
CENTER_LENGTH_MIN = 0.5
CENTER_LENGTH_MAX = 2.0
#: product boxes refuse larger radii
BOX_DELTA_CAP = 0.05
#: covering-radius target of the density check
DENSITY_RADIUS_BOUND = 0.1
#: local-chart validity scale of the center holonomy
CHART_RADIUS = 0.2


# --------------------------------------------------------------------------
# chart helpers


def _canonical_point(sys, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError(
            f"base point of dimension {x.size} given to a system of dimension {sys.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"base point must be finite, got {x.tolist()}")
    return sys.space.canonicalize(x[None, :])[0]


def _quad_interp(xs, ys, q):
    """Quadratic interpolation of a sampled curve, vectorized in q.

    xs must be strictly increasing with at least 3 entries; ys may have
    trailing coordinate axes.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    j = np.clip(np.searchsorted(xs, q) - 1, 1, xs.size - 2)
    x0, x1, x2 = xs[j - 1], xs[j], xs[j + 1]
    w0 = (q - x1) * (q - x2) / ((x0 - x1) * (x0 - x2))
    w1 = (q - x0) * (q - x2) / ((x1 - x0) * (x1 - x2))
    w2 = (q - x0) * (q - x1) / ((x2 - x0) * (x2 - x1))
    return (
        w0[:, None] * ys[j - 1] + w1[:, None] * ys[j] + w2[:, None] * ys[j + 1]
    )


# --------------------------------------------------------------------------
# leaf segments


def _chords(space, pts):
    """Chord length of every edge of a polyline."""
    return np.atleast_1d(space.distance(pts[:-1], pts[1:]))


@dataclass
class LeafSegment:
    """Polyline approximation of a one-dimensional leaf piece.

    points hold canonical chart coordinates.  arc_coords[i] is the
    cumulative arclength at vertex i: chord sums for unstable and stable
    segments, flow time for center segments.  chords[i] is the chord from
    vertex i to vertex i + 1, measured at construction when not given;
    every chord stays within spacing_bound.  Treated as immutable after
    construction.
    """

    kind: str
    points: np.ndarray
    arc_coords: np.ndarray
    spacing_bound: float
    space: object
    chords: np.ndarray = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.arc_coords = np.asarray(self.arc_coords, dtype=float)
        if self.kind not in ("unstable", "stable", "center"):
            raise ValueError(f"unknown leaf kind {self.kind!r}")
        if self.arc_coords.shape != (self.points.shape[0],):
            raise ValueError("arc_coords and points disagree in length")
        if self.arc_coords[0] != 0.0:
            raise ValueError("arc coordinates must start at 0")
        if self.chords is None:
            self.chords = _chords(self.space, self.points)
        if self.points.shape[0] > 1:
            # both checks written so that NaN fails them
            if not np.all(np.diff(self.arc_coords) > 0):
                raise ValueError("arc coordinates must be strictly increasing")
            if not float(np.max(self.chords)) <= self.spacing_bound * (1 + 1e-9) + 1e-12:
                raise ValueError("consecutive vertices exceed the spacing bound")

    @property
    def arclength(self):
        return float(self.arc_coords[-1])

    @property
    def vertex_count(self):
        return self.points.shape[0]

    def point_at(self, arc):
        """Chart point at cumulative arclength `arc` (clipped to range).

        A scalar arc gives one point of shape (dim,); an array of k arcs
        gives the k points as a (k, dim) array.  An arc on a vertex is
        placed at the start of the edge that vertex begins.
        """
        scalar = np.ndim(arc) == 0
        a = np.clip(np.atleast_1d(np.asarray(arc, dtype=float)), 0.0, self.arclength)
        if self.points.shape[0] == 1:
            out = np.repeat(self.points, a.size, axis=0)
        else:
            i = np.searchsorted(self.arc_coords, a, side="right") - 1
            i = np.clip(i, 0, self.points.shape[0] - 2)
            lo, hi = self.arc_coords[i], self.arc_coords[i + 1]
            w = (a - lo) / (hi - lo)
            out = self.space.lerp(self.points[i], self.points[i + 1], w[:, None])
        return out[0] if scalar else out


def _segment(kind, space, pts, spacing_bound, arc_coords=None, chords=None):
    """Leaf segment through canonical points; arc coordinates default to
    chord sums, and chords measured by the caller are reused."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if chords is None:
        chords = _chords(space, pts)
    if arc_coords is None:
        arc_coords = np.concatenate([[0.0], np.cumsum(chords)])
    return LeafSegment(
        kind, pts, np.asarray(arc_coords, dtype=float), float(spacing_bound), space, chords
    )


def _leaf_height_offset(fl, b0, offsets, direction, eig, backward):
    """Height correction series along the base eigenlines through b0.

    b0 holds one base point or (m, 2) of them, all with the same offsets;
    the result is (m, offsets).  Each term compares the roof along the
    orbit of a base point with the orbit of its displaced points;
    displacements contract geometrically (factor 1/eig backward along the
    expanding line, eig forward along the contracting one), so each
    offset's series is truncated once its own terms drop below 1e-13: an
    offset gives the same bits alone and in any batch.
    """
    offsets = np.asarray(offsets, dtype=float)
    bj = np.atleast_2d(np.asarray(b0, dtype=float))
    out = np.zeros((bj.shape[0], offsets.size))
    if fl.roof.is_constant:
        return out
    base_map = fl.base_map
    # largest offsets first: those still taking terms are a prefix
    order = np.argsort(-np.abs(offsets), kind="stable")
    offsets = offsets[order]
    reach = fl.roof.lipschitz() * np.abs(offsets)
    scale = 1.0
    for _ in range(400):
        if backward:
            bj = base_map.step_back(bj)
            scale /= eig
        live = int(np.count_nonzero(reach * abs(scale) >= 1e-13))
        if live == 0:
            break
        disp = wrap_unit(bj[:, None, :] + (offsets[:live, None] * scale) * direction[None, :])
        diff = fl.roof.value(bj)[:, None] - fl.roof.value(disp)
        out[:, :live] += diff if backward else -diff
        if not backward:
            bj = base_map.step(bj)
            scale *= eig
    # back in the given order
    return out[:, np.argsort(order)]


def _signed_eigenvalue(base_map, v):
    return float(v @ (base_map.matrix.astype(float) @ v))


def _suspension_leaf_points(fl, x, taus, stable=False):
    """Chart points of the (un)stable leaf through x at eigenline offsets.

    x is one point or (m, 3) of them; the leaves are listed one after the
    other, each at every offset of taus.
    """
    base_map = fl.base_map
    v = base_map.stable_direction if stable else base_map.unstable_direction
    eig = _signed_eigenvalue(base_map, v)
    x = np.atleast_2d(x)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    base = wrap_unit(x[:, None, :2] + taus[None, :, None] * v[None, None, :])
    h = x[:, 2:] + _leaf_height_offset(fl, x[:, :2], taus, v, eig, backward=not stable)
    return fl.canonicalize(np.concatenate([base, h[..., None]], axis=2).reshape(-1, 3))


def _eigenline_segment(sys, fl, x, radius, spacing, stable):
    """Closed-form leaf segment: a uniform eigenline grid, whose parameter
    is arclength; under a variable roof, whose height series bends the
    leaf, each side is refined by the passes of refine_step (_leaf_side)."""
    kind = "stable" if stable else "unstable"
    if fl is not None and not fl.roof.is_constant:
        neg = _leaf_side(fl, x, radius, spacing, stable, -1.0)
        pos = _leaf_side(fl, x, radius, spacing, stable, 1.0)
        return _segment(kind, sys.space, np.concatenate([neg[:0:-1], pos]), spacing)
    count = int(math.ceil(2.0 * radius / spacing))
    taus = np.linspace(-radius, radius, count + 1)
    if fl is not None:
        pts = _suspension_leaf_points(fl, x, taus, stable=stable)
    elif sys.invertible and sys.hyperbolic:  # plain torus: the eigenline itself
        v = sys.stable_direction if stable else sys.unstable_direction
        pts = wrap_unit(x[None, :] + taus[:, None] * v[None, :])
    else:
        raise ValueError("leaf segments need an invertible hyperbolic integer matrix")
    return _segment(kind, sys.space, pts, spacing, arc_coords=taus + radius)


def _leaf_side(fl, x, radius, spacing, stable, sign):
    """Vertices of one side of a variable-roof leaf, from x outward, whose
    chords sum to radius.

    A uniform grid of eigenline parameters on [0, sign * radius] is
    refined by the passes of refine_step, with parameter midpoints as
    pre-images and the leaf's closed form as the map, so every vertex lies
    on the leaf.  A downward seam crossing divides the parameter by the
    eigenvalue, so the side can fall short of radius: its parameter range
    is then extended at the speed of its last piece, and only the new part
    is refined.  The side ends on a vertex solved on its last edge
    (_chord_end).
    """
    space = fl.space

    def curve(t):
        return _suspension_leaf_points(fl, x, t, stable=stable)

    taus, pts, arcs = [], [], []
    start, length, total = 0.0, float(radius), 0.0
    while total < radius:
        grid = start + sign * np.linspace(0.0, length, int(math.ceil(length / spacing)) + 1)
        pre, img, chords = _bisection_passes(
            grid[:, None], lambda t: curve(t[:, 0]), lambda a, b: 0.5 * (a + b), space, spacing
        )
        # a later piece starts on the last vertex of the one before
        first = 1 if taus else 0
        taus.append(pre[first:, 0])
        pts.append(img[first:])
        arcs.append(np.cumsum(np.concatenate([[total], chords]))[1:])
        piece, total = arcs[-1][-1] - total, arcs[-1][-1]
        start = taus[-1][-1]
        length = 1.25 * (radius - total) * length / piece + spacing
    taus, pts = np.concatenate(taus), np.concatenate(pts)
    arc = np.concatenate([[0.0], *arcs])
    j = int(np.searchsorted(arc, radius)) - 1  # the last vertex short of radius
    end = _chord_end(curve, space, taus[j], taus[j + 1], pts[j], radius - arc[j])
    return np.concatenate([pts[: j + 1], end[None, :]])


def _chord_end(curve, space, t0, t1, p0, target):
    """The point of curve at chord `target` from p0, between parameters t0
    (where the chord is shorter) and t1 (where it is not): the bracket is
    cut into 1024 parts three times over, keeping the part of the first
    crossing, and the chord is interpolated linearly across the last."""
    for _ in range(3):
        ts = np.linspace(t0, t1, 1025)
        d = space.distance(p0[None, :], curve(ts))
        i = int(np.clip(np.searchsorted(np.maximum.accumulate(d), target), 1, 1024))
        t0, t1 = ts[i - 1], ts[i]
    return curve(np.array([t0 + (t1 - t0) * (target - d[i - 1]) / (d[i] - d[i - 1])]))[0]


def _leaf_segment(sys, x, radius, spacing, stable):
    kind = "stable" if stable else "unstable"
    radius = _finite(radius, "radius", positive=False)
    x = _canonical_point(sys, x)
    if radius == 0:
        return _segment(kind, sys.space, x[None, :], 1.0)
    spacing = radius / 20.0 if spacing is None else float(spacing)
    if not 0 < spacing <= radius / 10.0 + 1e-12:
        raise ValueError(f"spacing must be positive and at most radius/10, got {spacing}")
    if isinstance(sys, ToralMapHandle):
        return _eigenline_segment(sys, None, x, radius, spacing, stable)
    if isinstance(sys, (TimeTMapHandle, PerturbedHandle)):
        # a perturbed map keeps its reference's leaves (module docstring)
        return _eigenline_segment(sys, sys.reference_flow, x, radius, spacing, stable)
    raise ValueError(f"system exposes no {kind} direction")


def unstable_segment(sys, x, radius, spacing=None):
    """Unstable-leaf piece of arclength 2*radius centered at x.

    Every handle uses the closed form: the eigenline, plus the height
    series on a variable-roof suspension; a perturbed handle uses its
    reference flow's, which is exact for both shear shapes.
    """
    return _leaf_segment(sys, x, radius, spacing, stable=False)


def stable_segment(sys, x, radius, spacing=None):
    """Stable-leaf piece, in the closed form of unstable_segment."""
    return _leaf_segment(sys, x, radius, spacing, stable=True)


# --------------------------------------------------------------------------
# polyline refinement


def refine_step(sys, pts, spacing):
    """One forward step of a polyline with adaptive midpoint insertion.

    Every pre-image edge whose image chord exceeds `spacing` is bisected
    at its parameter midpoint and the midpoint is mapped forward, so the
    refined polyline stays on the image curve and chord error is set by
    the local stretch of the map, not by curvature estimates.  Image gaps
    halve each pass, so the loop ends after about log2 of the expansion
    factor passes (_bisection_passes).

    Returns (images, chords): the refined image polyline and its edge
    chords.  No vertex count is bounded here: the streamed growth checks
    its budget over the pieces it grows.
    """
    # a spacing <= 0 would bisect every edge on every pass
    spacing = _finite(spacing, "spacing")
    space = sys.space
    return _bisection_passes(
        pts,
        lambda p: np.atleast_2d(sys.step(p)),
        lambda a, b: space.lerp(a, b, 0.5),
        space,
        spacing,
    )[1:]


def _bisection_passes(pre, image, midpoint, space, spacing):
    """The passes of refine_step, in polyline order throughout.

    pre are the input pre-images, image maps pre-image rows to chart
    points and midpoint(a, b) gives the pre-image midpoint of each edge.
    Each pass bisects the edges whose chord exceeds spacing.  When that is
    every edge, as on a uniformly stretched leaf, the old rows and the
    midpoints are a fixed interleave (_doubled) and the doubled image is
    measured in one call: distance works row by row, so the chords are the
    bits the two halves give apart.  Otherwise the pass measures the two
    halves of each bisected edge and writes the midpoints in after their
    edge's first vertex (_interleaved).  Returns (pre-images, images,
    chords).
    """
    img = image(pre)
    chords = _chords(space, img)
    for _ in range(64):
        bad = np.flatnonzero(chords > spacing)
        if bad.size == 0:
            return pre, img, chords
        if bad.size == chords.size:
            mids = midpoint(pre[:-1], pre[1:])
            pre = _doubled(pre, mids)
            img = _doubled(img, image(mids))
            chords = _chords(space, img)
            continue
        mids = midpoint(np.take(pre, bad, axis=0), np.take(pre, bad + 1, axis=0))
        mid_imgs = image(mids)
        chords[bad] = space.distance(np.take(img, bad, axis=0), mid_imgs)
        right = space.distance(mid_imgs, np.take(img, bad + 1, axis=0))
        # midpoint i lands after the i earlier ones, behind its edge; the
        # old vertices fill the other rows in order
        at = bad + np.arange(1, bad.size + 1)
        old = np.ones(img.shape[0] + bad.size, dtype=bool)
        old[at] = False
        keep = np.flatnonzero(old)
        pre = _interleaved(pre, mids, keep, at)
        img = _interleaved(img, mid_imgs, keep, at)
        # edge k of the result starts on vertex k: the right halves start
        # on the midpoints, every other edge on an old vertex
        chords = _interleaved(chords, right, keep[:-1], at)
    raise RuntimeError("midpoint refinement failed to settle in 64 passes")


def _interleaved(rows, new, keep, at):
    """A fresh array with rows placed at indices `keep` and new at indices `at`."""
    out = np.empty((keep.size + at.size,) + rows.shape[1:])
    _items(out)[keep] = _items(rows)
    _items(out)[at] = _items(new)
    return out


def _doubled(rows, new):
    """A fresh array with rows on the even indices and new, one row
    shorter, on the odd ones."""
    out = np.empty((rows.shape[0] + new.shape[0],) + rows.shape[1:])
    _items(out)[0::2] = _items(rows)
    _items(out)[1::2] = _items(new)
    return out


def _items(a):
    """The rows of a float array as single items, each moved in one copy
    (a scatter of whole rows runs about twice as fast as one of floats)."""
    a = np.ascontiguousarray(a, dtype=float)
    return a if a.ndim == 1 else a.view(np.dtype((np.void, 8 * a.shape[1])))[:, 0]


# --------------------------------------------------------------------------
# center segments


def _require_center(sys):
    if not getattr(sys, "preserves_center_leaves", False):
        raise ValueError(
            "center operations need a system whose center leaves are the "
            "flow lines of a reference suspension flow"
        )


def center_segment(sys, x, length):
    """Center-leaf arc: the flow segment from x of the requested arclength.

    Center arclength equals flow time, so vertices sit at evenly spaced
    flow times; negative lengths walk backward along the flow.
    """
    _require_center(sys)
    length = float(length)
    if not abs(length) <= CENTER_RADIUS_CAP + 1e-12:
        raise ValueError(f"length must be finite and is capped at +-{CENTER_RADIUS_CAP}, got {length}")
    fl = sys.reference_flow
    x = _canonical_point(sys, x)
    if length == 0:
        return _segment("center", sys.space, x[None, :], 1.0)
    spacing = min(abs(length) / 16.0, fl.roof.roof_min / 4.0)
    count = int(math.ceil(abs(length) / spacing))
    times = np.linspace(0.0, length, count + 1)
    pts = np.stack([fl.flow(x, t) for t in times])
    return _segment("center", sys.space, pts, spacing, arc_coords=np.abs(times))


# --------------------------------------------------------------------------
# center holonomy


def _slide_to_leaf(fl, space, pts, leaf, origin, t0):
    """Move points along their flow lines onto a leaf polyline.

    The leaf is tabulated relative to `origin` in the chart; each point is
    flowed by a Newton-adjusted time until its height residual against the
    leaf (interpolated at the matching eigenline coordinate) vanishes.
    Returns the met points.
    """
    v = fl.base_map.unstable_direction
    rel_leaf = space.displacement(origin, leaf.points)
    taus_leaf = rel_leaf[:, :2] @ v
    if taus_leaf[0] > taus_leaf[-1]:
        taus_leaf = taus_leaf[::-1]
        rel_leaf = rel_leaf[::-1]
    if np.any(np.diff(taus_leaf) <= 0):
        raise RuntimeError("leaf polyline is not monotone in the eigenline")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ts = np.full(pts.shape[0], float(t0))
    for _ in range(12):
        W = fl.flow(pts, ts)
        rel = space.displacement(origin, W)
        tau = rel[:, :2] @ v
        pad = 0.02 * (taus_leaf[-1] - taus_leaf[0])
        if np.any(tau < taus_leaf[0] - pad) or np.any(tau > taus_leaf[-1] + pad):
            raise ValueError(
                "points leave the tabulated leaf; enlarge its radius"
            )
        target = _quad_interp(taus_leaf, rel_leaf, tau)
        res = rel - target
        if float(np.max(np.abs(res[:, 2]))) < 1e-12:
            break
        ts = ts - res[:, 2]
    return fl.flow(pts, ts)


def center_holonomy(sys, x, y, u_points, depth):
    """Transport points on the unstable leaf of x to the unstable leaf of
    y, for y on the center leaf through x.

    Everything is pulled back `depth` steps so the data enter a small
    chart; there each point slides along its flow line onto the pulled
    target leaf, and the meeting points are pushed forward again.  Deeper
    pulls shrink both the chart and the interpolation error, so outputs
    stabilize with depth.
    """
    _require_center(sys)
    depth = _positive_whole(depth, "depth")
    fl = sys.reference_flow
    x = _canonical_point(sys, x)
    y = _canonical_point(sys, y)
    if fl.center_time(x, y) is None:
        raise ValueError("y is not on the center leaf through x (within 1e-8)")
    u = sys.space.canonicalize(np.atleast_2d(np.asarray(u_points, dtype=float)))
    xd, yd, ud = x[None, :], y[None, :], u
    for _ in range(depth):
        xd = sys.step_back(xd)
        yd = sys.step_back(yd)
        ud = sys.step_back(ud)
    xd, yd = xd[0], yd[0]
    # the chart constrains the unstable data, not the center separation:
    # sliding along flow lines is globally defined
    spread = float(np.max(np.atleast_1d(sys.distance(ud, xd[None, :]))))
    if spread > CHART_RADIUS:
        raise ValueError(
            f"pulled-back unstable spread {spread:.3g} exceeds the local "
            f"chart radius {CHART_RADIUS}; increase depth"
        )
    t0 = fl.center_time(xd, yd)
    if t0 is None:
        raise RuntimeError("center pairing lost while pulling back")
    # size the target leaf from the flown points' eigenline extent
    v = fl.base_map.unstable_direction
    W0 = fl.flow(ud, np.full(ud.shape[0], t0))
    tau0 = sys.space.displacement(yd, W0)[:, :2] @ v
    leaf_r = 1.5 * float(np.max(np.abs(tau0))) + 32.0 * 1e-6
    if leaf_r > CHART_RADIUS:
        raise ValueError(
            f"transported unstable extent {leaf_r:.3g} exceeds the local "
            f"chart radius {CHART_RADIUS}; increase depth"
        )
    leaf_r = max(leaf_r, 1e-4)
    leaf = unstable_segment(sys, yd, leaf_r, spacing=leaf_r / 40.0)
    out = _slide_to_leaf(fl, sys.space, ud, leaf, yd, t0)
    for _ in range(depth):
        out = sys.step(out)
    return sys.space.canonicalize(out)


def holonomy_equivariance_gap(sys, x, y, u_points, depth):
    """Max distance between map-then-transport and transport-then-map."""
    x = _canonical_point(sys, x)
    y = _canonical_point(sys, y)
    u = sys.space.canonicalize(np.atleast_2d(np.asarray(u_points, dtype=float)))
    a = sys.step(center_holonomy(sys, x, y, u, depth))
    b = center_holonomy(
        sys,
        sys.step(x[None, :])[0],
        sys.step(y[None, :])[0],
        sys.step(u),
        depth,
    )
    return float(np.max(np.atleast_1d(sys.distance(a, b))))


# --------------------------------------------------------------------------
# center non-expansion


@dataclass(frozen=True)
class CenterExpansionReport:
    max_ratio_forward: float
    max_ratio_backward: float
    samples: int
    horizon: int
    ratio_bound: float
    passed: bool


def center_nonexpansion_check(sys, samples=100, horizon=50, rng_seed=0):
    """Worst center-arclength ratio of nearby center-leaf pairs under
    iteration, both forward and backward.

    Center distance is flow time along the shared fiber, carried as
    explicit state: y stays at flow offset s from x, and one step updates
    s exactly.  A time-t map keeps s; a center shear of height map g moves
    it to g(h + s) - g(h) forward, h the height of x, and to
    g^-1(g(h) + s) - h backward, h the height of x after the step.
    Tracking the offset instead of re-pairing two float orbits keeps the
    ratios meaningful over long horizons, where independently iterated
    orbits would decorrelate.  Report-only: the passed flag compares
    against CENTER_LENGTH_MAX / CENTER_LENGTH_MIN.
    """
    _require_center(sys)
    samples = _positive_whole(samples, "samples")
    horizon = _positive_whole(horizon, "horizon")
    fl = sys.reference_flow
    rng = np.random.default_rng(rng_seed)
    X = fl.random_points(rng, samples)
    offs = rng.uniform(0.05, CENTER_LENGTH_MIN, samples)
    offs *= rng.choice([-1.0, 1.0], samples)
    base = np.abs(offs)
    # a center-preserving system with eps > 0 is a center-sheared map
    eps = float(getattr(sys, "epsilon", 0.0))
    c = fl.roof.constant

    def sweep(forward):
        worst = 1.0
        Xk = X
        s = offs.copy()
        for _ in range(horizon):
            h = Xk[:, 2]
            Xk = sys.step(Xk) if forward else sys.step_back(Xk)
            if eps > 0.0 and forward:
                s = sys.shape.height(c, eps, h + s) - sys.shape.height(c, eps, h)
            elif eps > 0.0:
                h = Xk[:, 2]
                v = sys.shape.height(c, eps, h) + s
                s = sys.shape.height_inverse(c, eps, v) - h
            worst = max(worst, float(np.max(np.abs(s) / base)))
        return worst

    fwd = sweep(True)
    bwd = sweep(False)
    bound = CENTER_LENGTH_MAX / CENTER_LENGTH_MIN
    return CenterExpansionReport(
        max_ratio_forward=fwd,
        max_ratio_backward=bwd,
        samples=samples,
        horizon=horizon,
        ratio_bound=bound,
        passed=max(fwd, bwd) <= bound,
    )


# --------------------------------------------------------------------------
# local product boxes


@dataclass
class ProductBox:
    """Local product-structure samples around a center point.

    a_samples is the (unstable offset) x (center offset) grid: each entry
    is the intersection of the center leaf through an unstable-leaf point
    with the unstable leaf through a center-leaf point.  d_samples fattens
    every a_sample along the stable fibers.
    """

    center: np.ndarray
    delta: float
    u_offsets: np.ndarray
    c_offsets: np.ndarray
    s_offsets: np.ndarray
    a_samples: np.ndarray
    d_samples: np.ndarray


def _axis_offsets(delta, count):
    if count <= 1:
        return np.zeros(1)
    return np.linspace(-delta, delta, count)


def build_product_box(sys, x, delta, samples_per_axis):
    """Sample the local product structure at x with radius delta.

    The reference flow commutes with the map, so flowing for time c
    carries the unstable leaf of x onto the unstable leaf of flow(x, c):
    the intersection for unstable point x_u and center offset c is
    flow(x_u, c), with no leaf to tabulate.
    """
    _require_center(sys)
    delta = _finite(delta, "delta")
    if delta > BOX_DELTA_CAP + 1e-12:
        raise ValueError(
            f"delta {delta} is above the product-box cap "
            f"{BOX_DELTA_CAP}; use a smaller delta"
        )
    k = _positive_whole(samples_per_axis, "samples_per_axis")
    x = _canonical_point(sys, x)
    fl = sys.reference_flow
    u_offs = _axis_offsets(delta, k)
    c_offs = _axis_offsets(delta, k)
    s_offs = _axis_offsets(delta, k)
    u_leaf = unstable_segment(sys, x, delta, spacing=delta / 20.0)
    x_u = u_leaf.point_at(u_leaf.arclength / 2.0 + u_offs)
    # a_samples ordered with the unstable index major, center index minor
    a_samples = np.stack([fl.flow(x_u, c) for c in c_offs], axis=1).reshape(k * k, -1)
    return ProductBox(
        center=x,
        delta=delta,
        u_offsets=u_offs,
        c_offsets=c_offs,
        s_offsets=s_offs,
        a_samples=a_samples,
        d_samples=_suspension_leaf_points(fl, a_samples, s_offs, stable=True),
    )


# --------------------------------------------------------------------------
# density of center-saturated unstable leaves


@dataclass(frozen=True)
class DensityReport:
    covering_radius: float
    sample_count: int
    probe_count: int
    leaf_radius: float
    center_radius: float
    spacing: float
    bound: float
    passed: bool


def _lifted_density_samples(fl, x, center_radius, leaf_radius):
    """The density samples of the leaf through x, each with the 9 wrap
    shifts of its 3 seam lifts: (27 N, 3), sample-major."""
    spacing = DENSITY_RADIUS_BOUND / 4.0
    ku = int(math.floor(leaf_radius / spacing + 1e-9))
    kc = int(math.floor(center_radius / spacing + 1e-9))
    taus = np.arange(-ku, ku + 1) * spacing
    cts = np.arange(-kc, kc + 1) * spacing
    u_pts = _suspension_leaf_points(fl, x, taus)
    samples = np.concatenate([fl.flow(u_pts, c) for c in cts], axis=0)
    reps = fl.space.lift_reps(samples)  # (N, 3, 3)
    shifts = np.array(
        [[i, j, 0.0] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)]
    )
    return (reps[:, None, :, :] + shifts[None, :, None, :]).reshape(-1, 3)


def _nearest_distances(points, probes):
    """Euclidean distance from each probe to its nearest point, exactly.

    The points are hashed into cubes of side DENSITY_RADIUS_BOUND / 2,
    twice the density sample spacing.  A probe searches the cubes within
    `reach` of its own cube along every axis.  Every point outside them
    lies more than `reach` sides away, so a best distance below
    (reach - margin) sides is final; the margin covers the rounding of
    floor at cube edges.  The probes left open search again at twice the
    reach, until their search covers every cube.  Squared differences are
    summed over axes 0, 1, 2 in that order and the root is taken of the
    minimum, as cKDTree does, so the distances match it bit for bit.
    """
    side = DENSITY_RADIUS_BOUND / 2.0
    margin = 1e-6
    lo = points.min(axis=0)
    cubes = np.floor((points - lo) / side).astype(np.int64)
    dims = cubes.max(axis=0) + 1
    keys = (cubes[:, 0] * dims[1] + cubes[:, 1]) * dims[2] + cubes[:, 2]
    order = np.argsort(keys, kind="stable")
    points = points[order]
    # the points of cube k are points[starts[k]:starts[k + 1]], so a run of
    # cubes along axis 2 is one slice
    starts = np.searchsorted(keys[order], np.arange(dims.prod() + 1))
    # a probe beyond the grid searches from the cube next to its edge: every
    # point is still at least as far from it as the reach bound says
    homes = np.clip(np.floor((probes - lo) / side), -1, dims).astype(np.int64)
    best2 = np.full(len(probes), np.inf)
    left = np.arange(len(probes))
    reach = 1
    while left.size:
        # a few hundred probes at a time bound the gathered points
        for part in np.array_split(left, -(-left.size // 512)):
            # each probe's window as (x, y) columns, a run of cubes along
            # axis 2 in each, and then the points of those runs
            first = np.clip(homes[part] - reach, 0, dims)
            stop = np.clip(homes[part] + reach + 1, 0, dims)
            ny = stop[:, 1] - first[:, 1]
            per_probe = (stop[:, 0] - first[:, 0]) * ny
            owner = np.repeat(np.arange(part.size), per_probe)
            k = np.arange(owner.size) - np.repeat(np.cumsum(per_probe) - per_probe, per_probe)
            column = (first[owner, 0] + k // ny[owner]) * dims[1] + first[owner, 1] + k % ny[owner]
            a = starts[column * dims[2] + first[owner, 2]]
            count = starts[column * dims[2] + stop[owner, 2]] - a
            owner = np.repeat(owner, count)
            idx = np.repeat(a - (np.cumsum(count) - count), count) + np.arange(owner.size)
            diff = points[idx] - probes[part][owner]
            d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]
            part_best = np.full(part.size, np.inf)
            np.minimum.at(part_best, owner, d2)
            best2[part] = part_best
        covered = np.all((homes[left] - reach <= 0) & (homes[left] + reach + 1 >= dims), axis=1)
        final = covered | (np.sqrt(best2[left]) < (reach - margin) * side)
        left = left[~final]
        reach *= 2
    return np.sqrt(best2)


def density_check(sys, x, center_radius, leaf_radius, probe_points):
    """Covering radius of the center-saturated unstable leaf over a probe
    grid; the finite surrogate for density of the center-unstable plaque.

    Samples sit at integer multiples of the spacing, a quarter of
    DENSITY_RADIUS_BOUND, along the eigenline and the flow, so sample sets
    are nested across leaf radii and the covering radius cannot increase
    when the leaf grows.  Distances are Euclidean over the wrap and seam
    lifts of every sample, each probe's to its nearest lift exactly.
    """
    _require_center(sys)
    fl = sys.reference_flow
    x = _canonical_point(sys, x)
    center_radius = _finite(center_radius, "center_radius", positive=False)
    leaf_radius = _finite(leaf_radius, "leaf_radius", positive=False)
    probes = getattr(probe_points, "points", probe_points)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.ndim != 2 or probes.shape[0] == 0 or probes.shape[1] != 3:
        raise ValueError(
            f"probe_points must be a nonempty (P, 3) array, got shape {probes.shape}"
        )
    if not np.all(np.isfinite(probes)):
        raise ValueError("probe_points must be finite")
    lifted = _lifted_density_samples(fl, x, center_radius, leaf_radius)
    cov = float(np.max(_nearest_distances(lifted, probes)))
    return DensityReport(
        covering_radius=cov,
        sample_count=lifted.shape[0] // 27,
        probe_count=probes.shape[0],
        leaf_radius=leaf_radius,
        center_radius=center_radius,
        spacing=DENSITY_RADIUS_BOUND / 4.0,
        bound=DENSITY_RADIUS_BOUND,
        passed=cov <= DENSITY_RADIUS_BOUND + 1e-12,
    )
