"""Invariant-leaf machinery for the model systems.

Unstable and center leaf segments as polylines, center holonomy between
unstable leaves, local product-structure boxes, and the two finite checks
used by the experiment suite: center non-expansion under iteration and the
covering-radius surrogate for density of center-saturated unstable leaves.

Leaves are exact eigenlines on the torus.  On a mapping torus the unstable
leaf of a time-t map is the base eigenline plus a geometrically convergent
height series (zero for constant roofs).  Perturbed maps share the leaves
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

from .systems import PerturbedHandle, TimeTMapHandle, ToralMapHandle, wrap_unit

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
            if np.any(np.diff(self.arc_coords) <= 0):
                raise ValueError("arc coordinates must be strictly increasing")
            if float(np.max(self.chords)) > self.spacing_bound * (1 + 1e-9) + 1e-12:
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
    expanding line, eig forward along the contracting one), so the series
    is truncated once terms drop below 1e-13.
    """
    offsets = np.asarray(offsets, dtype=float)
    bj = np.atleast_2d(np.asarray(b0, dtype=float))
    out = np.zeros((bj.shape[0], offsets.size))
    if fl.roof.is_constant:
        return out
    base_map = fl.base_map
    lip = fl.roof.lipschitz()
    omax = float(np.max(np.abs(offsets))) if offsets.size else 0.0
    scale = 1.0
    for _ in range(400):
        if backward:
            bj = base_map.step_back(bj)
            scale /= eig
        if lip * omax * abs(scale) < 1e-13:
            break
        disp = wrap_unit(bj[:, None, :] + (offsets[:, None] * scale) * direction[None, :])
        diff = fl.roof.value(bj)[:, None] - fl.roof.value(disp)
        out = out + (diff if backward else -diff)
        if not backward:
            bj = base_map.step(bj)
            scale *= eig
    return out


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
    """Closed-form leaf segment: uniform eigenline grid, marched when the
    variable-roof height series stretches arclength past the parameter."""
    kind = "stable" if stable else "unstable"
    if fl is not None and not fl.roof.is_constant:
        taus = _arc_march(
            lambda t: _suspension_leaf_points(fl, x, t, stable=stable),
            fl.space,
            radius,
            spacing,
        )
        pts = _suspension_leaf_points(fl, x, taus, stable=stable)
        return _segment(kind, sys.space, pts, spacing)
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


def _arc_march(curve, space, radius, spacing):
    """Parameter samples reaching chord arclength `radius` on both sides of
    parameter 0, keeping every chord below `spacing`."""

    def one_side(sign):
        taus = [0.0]
        prev = curve(np.array([0.0]))[0]
        acc = 0.0
        step = spacing * 0.5
        while acc < radius - 1e-12:
            trial_tau = taus[-1] + sign * step
            trial = curve(np.array([trial_tau]))[0]
            d = float(space.distance(prev, trial))
            if d > spacing * 0.95:
                step *= 0.5
                if step < 1e-12:
                    raise RuntimeError("leaf march stalled; spacing too tight")
                continue
            if acc + d > radius:
                # partial final step, linearized on the local chord
                frac = (radius - acc) / d
                trial_tau = taus[-1] + sign * step * frac
                trial = curve(np.array([trial_tau]))[0]
                d = float(space.distance(prev, trial))
            taus.append(trial_tau)
            prev = trial
            acc += d
            if d < 0.4 * spacing:
                step = min(step * 1.6, spacing * 0.9)
        return taus

    neg = one_side(-1.0)
    pos = one_side(+1.0)
    return np.array(neg[:0:-1] + pos)


def _leaf_segment(sys, x, radius, spacing, stable):
    kind = "stable" if stable else "unstable"
    radius = float(radius)
    # written so that NaN fails it
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be >= 0 and finite, got {radius}")
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


class VertexBudgetExceeded(RuntimeError):
    """Raised when refinement would push a grown polyline past the budget.

    Attributes record how far the growth got so callers can shorten the
    schedule instead of guessing.
    """

    def __init__(self, step_index, needed, budget):
        self.reached_step = int(step_index) - 1
        self.step_index = int(step_index)
        self.needed = int(needed)
        self.budget = int(budget)
        super().__init__(
            f"vertex budget {budget} exceeded at growth step {step_index} "
            f"(needs {needed} vertices); completed {self.reached_step} steps"
        )

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so that the error
        # survives the pickling back from a forked worker
        return type(self), (self.step_index, self.needed, self.budget)


def refine_step(sys, pts, spacing, budget=None, step_index=1):
    """One forward step of a polyline with adaptive midpoint insertion.

    Every pre-image edge whose image chord exceeds `spacing` is bisected
    at its parameter midpoint and the midpoint is mapped forward, so the
    refined polyline stays on the image curve and chord error is set by
    the local stretch of the map, not by curvature estimates.  Image gaps
    halve each pass, so the loop ends after about log2 of the expansion
    factor passes; only the edges a pass creates are measured.

    Passes only append: vertex ids number the input vertices, then each
    pass's midpoints, and an edge is a pair of ids.  The vertices are put
    in polyline order once at the end, by a dyadic key: the input edge a
    vertex lies on, then its position along that edge as a 64-bit binary
    fraction.

    Returns (images, chords): the refined image polyline and its edge
    chords.  Raises VertexBudgetExceeded, tagged with step_index, when the
    refined polyline would need more than `budget` vertices.
    """
    img, keys, finals = _bisection_passes(sys, pts, spacing, budget, step_index)
    n0 = img.parts[0].shape[0]
    # the input vertices sit at fraction 0 of their own edge
    edge = np.concatenate([np.arange(n0), *(e for e, _ in keys)])
    frac = np.concatenate([np.zeros(n0, dtype=np.uint64), *(f for _, f in keys)])
    keys.clear()  # drop the key parts before the sort
    order = np.lexsort((frac, edge))
    del edge, frac
    imgs = np.take(img.pop_concatenated(), order, axis=0)
    # a final chord is filed under the id of its edge's first vertex
    by_id = np.empty(order.size)
    for ids, part in finals:
        by_id[ids] = part
    return imgs, np.take(by_id, order[:-1])


def _bisection_passes(sys, pts, spacing, budget, step_index):
    """The passes of refine_step, with every vertex kept in pass order.

    Returns the images by id (_Parts), the (input edge, fraction) key
    parts of each pass's midpoints, and the (first vertex ids, chords)
    of the edges each pass left whole.
    """
    space = sys.space
    pre = _Parts(pts)
    img = _Parts(np.atleast_2d(sys.step(pts)))
    keys = []
    finals = []
    # the edges this pass may bisect: at first edge j joins vertices j and
    # j + 1; later they are the halves of the last pass's bisected edges,
    # all of dyadic width 2 * half
    chords = _chords(space, img.parts[0])
    halves = None
    half = np.uint64(1 << 63)
    for _ in range(64):
        over = chords > spacing
        # vertex and edge ids in int32 while every id of this pass fits
        fits = img.total + over.size <= np.iinfo(np.int32).max
        ids = np.arange(over.size, dtype=np.int32 if fits else np.int64)
        bad, good = ids[over], ids[~over]
        kept = chords[good]
        # the chords are measured: free them before the edges are built
        del ids, over, chords
        if halves is None:
            finals.append((good, kept))
            lo, hi, edge, frac = bad, bad + 1, bad, np.zeros(bad.size, np.uint64)
        else:
            finals.append((halves.lo_ids(good), kept))
            lo, hi, edge, frac = halves.edges(bad)
        # the last pass's halves are spent too: free them before the step
        # allocates its temporaries
        del good, kept
        halves = None
        if bad.size == 0:
            return img, keys, finals
        if budget is not None and img.total + bad.size > budget:
            raise VertexBudgetExceeded(step_index, img.total + bad.size, budget)
        mids = space.lerp(pre.rows(lo), pre.rows(hi), 0.5)
        mid_imgs = np.atleast_2d(sys.step(mids))
        chords = np.empty(2 * bad.size)
        chords[0::2] = space.distance(img.rows(lo), mid_imgs)
        chords[1::2] = space.distance(mid_imgs, img.rows(hi))
        halves = _Halves(lo, hi, edge, frac, img.total, half)
        keys.append((edge, frac + half))
        pre.append(mids)
        img.append(mid_imgs)
        half >>= np.uint64(1)
    raise RuntimeError("midpoint refinement failed to settle in 64 passes")


class _Parts:
    """Append-only rows addressed by id: the first part's rows, then the
    second's, and so on; nothing is copied until the end."""

    def __init__(self, first):
        self.parts = [first]
        self.starts = [0]
        self.total = first.shape[0]

    def append(self, rows):
        self.parts.append(rows)
        self.starts.append(self.total)
        self.total += rows.shape[0]

    def rows(self, ids):
        if len(self.parts) == 1:
            return np.take(self.parts[0], ids, axis=0)
        out = np.empty((ids.size, self.parts[0].shape[1]))
        part_of = np.searchsorted(self.starts, ids, side="right") - 1
        for i, (part, start) in enumerate(zip(self.parts, self.starts)):
            sel = np.flatnonzero(part_of == i)
            if sel.size:
                out[sel] = np.take(part, ids[sel] - start, axis=0)
        return out

    def pop_concatenated(self):
        """All rows in id order; the parts are dropped."""
        out = np.concatenate(self.parts)
        self.parts = []
        return out


class _Halves:
    """The two halves of each edge a refinement pass bisected.

    Edge i of the pass joined vertex ids lo[i] and hi[i] on input edge
    edge[i], starting at dyadic fraction frac[i]; its midpoint got id
    mid_start + i and fraction frac[i] + half.  Half 2i runs from lo[i]
    to the midpoint, half 2i + 1 from the midpoint to hi[i].
    """

    def __init__(self, lo, hi, edge, frac, mid_start, half):
        self.lo, self.hi, self.edge, self.frac = lo, hi, edge, frac
        self.mid_start, self.half = mid_start, half

    def lo_ids(self, j):
        """Id of the first vertex of each of halves j."""
        i = j >> 1
        return np.where(j & 1, self.mid_start + i, self.lo[i])

    def edges(self, j):
        """(first ids, second ids, input edge, start fraction) of halves j."""
        i = j >> 1
        second = (j & 1).astype(bool)
        mid = self.mid_start + i
        frac = self.frac[i]
        return (
            np.where(second, mid, self.lo[i]),
            np.where(second, self.hi[i], mid),
            self.edge[i],
            np.where(second, frac + self.half, frac),
        )


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
    if abs(length) > CENTER_RADIUS_CAP + 1e-12:
        raise ValueError(f"center arcs are capped at length {CENTER_RADIUS_CAP}")
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
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
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
        samples=int(samples),
        horizon=int(horizon),
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
    delta = float(delta)
    # written so that NaN fails it
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if delta > BOX_DELTA_CAP + 1e-12:
        raise ValueError(
            f"delta {delta} is above the product-box cap "
            f"{BOX_DELTA_CAP}; use a smaller delta"
        )
    k = int(samples_per_axis)
    if k < 1:
        raise ValueError("samples_per_axis must be >= 1")
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
    center_radius = float(center_radius)
    leaf_radius = float(leaf_radius)
    # written so that NaN fails them
    if not 0 <= center_radius < math.inf:
        raise ValueError(f"center_radius must be >= 0 and finite, got {center_radius}")
    if not 0 <= leaf_radius < math.inf:
        raise ValueError(f"leaf_radius must be >= 0 and finite, got {leaf_radius}")
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
