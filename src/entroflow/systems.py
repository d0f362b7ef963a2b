"""Model dynamical systems behind a uniform handle interface.

Covers integer toral maps (hyperbolic automorphisms and forward-only
endomorphisms such as the circle doubling map), suspension flows over a
hyperbolic base with constant or trigonometric roof, their time-t maps,
and two admissible perturbation families of a time-t map.

Points are plain float arrays: shape (d,) on the d-torus, (3,) in the
suspension chart (x1, x2, height).  All mod-1 reductions go through
:func:`wrap_unit` so canonical coordinates live in [0, 1).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "wrap_unit",
    "wrap_diff",
    "torus_distance",
    "TorusSpace",
    "Roof",
    "SuspensionFlow",
    "MappingTorusSpace",
    "SystemHandle",
    "ToralMapHandle",
    "TimeTMapHandle",
    "PerturbedHandle",
    "CenterShear",
    "BaseShear",
    "circle_doubling",
    "cat_map",
]

_EIG_TOL = 1e-9
#: center_time scans this many roof crossings each way and matches bases
#: within the tolerance
_CENTER_TIME_CROSSINGS = 12
_CENTER_TIME_TOL = 1e-8


def _whole(value, name):
    """value as an int, or a ValueError naming `name` unless it is a whole
    number (a whole float such as 2.0 passes; NaN and inf do not)."""
    try:
        return operator.index(value)
    except TypeError:
        as_float = float(value)
    if not as_float.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(as_float)


def wrap_unit(x):
    """Reduce coordinates mod 1 into [0, 1) by floor subtraction.

    The result of ``x - floor(x)`` can round up to exactly 1.0 for inputs a
    hair below an integer; those are clamped back to 0.0.  Adding 0.0 turns
    any -0.0 into +0.0 so canonical forms compare bitwise.
    """
    y = _wrap_in_place(np.array(x, dtype=float))
    return y if y.ndim else y[()]


def _wrap_in_place(y):
    """wrap_unit on a float array the caller owns; overwrites and returns y."""
    y -= np.floor(y)
    y[y >= 1.0] = 0.0
    y += 0.0
    return y


def wrap_diff(a, b):
    """Shortest representative of a - b on the torus, in [-0.5, 0.5)."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return d - np.round(d)


def torus_distance(p, q):
    """Flat metric on T^d: sqrt of summed squared per-coordinate wrap gaps."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {p.shape[-1]} vs {q.shape[-1]}"
        )
    d = np.abs(p - q)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


class TorusSpace:
    """T^d with the flat wrap metric; also provides grids and the kernels'
    wrap mask."""

    kind = "torus"

    def __init__(self, dim):
        if dim not in (1, 2, 3):
            raise ValueError("torus dimension must be 1, 2 or 3")
        self.dim = dim

    def describe(self):
        return ("torus", self.dim)

    def canonicalize(self, pts):
        return wrap_unit(pts)

    def distance(self, p, q):
        return torus_distance(p, q)

    def displacement(self, p, q):
        """Chart step from p to the lift of q nearest p."""
        return wrap_diff(q, p)

    def lerp(self, p, q, frac):
        """Interpolate toward the lift of q nearest p, then canonicalize."""
        p = np.asarray(p, dtype=float)
        return self.canonicalize(p + np.asarray(frac) * self.displacement(p, q))

    def random_points(self, rng, count):
        return rng.random((count, self.dim))

    def grid(self, resolution):
        resolution = _whole(resolution, "resolution")
        if resolution ** self.dim > 2 ** 20:
            raise ValueError(
                f"grid of {resolution}^{self.dim} points exceeds the 2^20 cap"
            )
        axes = [np.arange(resolution) / resolution] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    # --- data for the counting kernels -------------------------------------
    @property
    def wrap_mask(self):
        return np.ones(self.dim, dtype=bool)

    def lift_reps(self, pts):
        """Equivalent representatives per point: the point itself only."""
        pts = np.asarray(pts, dtype=float)
        return pts[..., None, :]


class Roof:
    """Roof function  constant + sum_k a_k cos(2 pi k.x)  over T^2.

    Positivity is enforced through sum |a_k| < constant, which also gives
    cheap exact bounds roof_min / roof_max used by the flow and the
    non-expansion bound.
    """

    def __init__(self, constant=1.0, terms=()):
        constant = float(constant)
        # written so that NaN fails it
        if not 0 < constant < math.inf:
            raise ValueError(f"roof constant must be positive and finite, got {constant}")
        norm_terms = []
        total = 0.0
        for kvec, amp in terms:
            kvec = tuple(int(k) for k in kvec)
            if len(kvec) != 2:
                raise ValueError("roof wave vectors must have 2 components")
            if all(k == 0 for k in kvec):
                raise ValueError("constant roof term must go into `constant`")
            amp = float(amp)
            if not math.isfinite(amp):
                raise ValueError(f"roof amplitude must be finite, got {amp}")
            total += abs(amp)
            norm_terms.append((kvec, amp))
        if total >= constant:
            raise ValueError(
                f"sum of |coefficients| {total} must stay below the constant {constant}"
            )
        self.constant = constant
        self.terms = tuple(norm_terms)
        self.roof_min = constant - total
        self.roof_max = constant + total

    @property
    def is_constant(self):
        return not self.terms

    def value(self, base):
        base = np.asarray(base, dtype=float)
        out = np.full(base.shape[:-1], self.constant)
        for kvec, amp in self.terms:
            phase = 2.0 * math.pi * (base @ np.asarray(kvec, dtype=float))
            out = out + amp * np.cos(phase)
        return out

    def lipschitz(self):
        return sum(
            2.0 * math.pi * abs(amp) * float(np.linalg.norm(kvec))
            for kvec, amp in self.terms
        )

    def describe(self):
        return ("roof", self.constant, self.terms)


class SuspensionFlow:
    """Suspension of a hyperbolic toral automorphism under a roof function.

    base_map is a ToralMapHandle or its integer matrix; it must act on T^2
    with |det| = 1 and be hyperbolic.  Chart points are (x1, x2, h) with
    0 <= h < roof(x); the identification (x, roof(x)) ~ (A x, 0) is
    applied eagerly by :meth:`canonicalize`.
    """

    def __init__(self, base_map, roof=None):
        if not isinstance(base_map, ToralMapHandle):
            base_map = ToralMapHandle(base_map)
        if not base_map.invertible:
            raise ValueError(
                f"matrix must have determinant +/-1, got {base_map.determinant}"
            )
        if base_map.dim != 2:
            raise ValueError("suspension base must act on T^2")
        if not base_map.hyperbolic:
            raise ValueError("suspension base must be hyperbolic")
        if roof is None:
            roof = Roof(1.0)
        elif not isinstance(roof, Roof):
            roof = Roof(float(roof))
        self.base_map = base_map
        self.roof = roof
        self.space = MappingTorusSpace(self)

    def describe(self):
        return (
            "suspension",
            tuple(map(tuple, self.base_map.matrix.tolist())),
            self.roof.describe(),
        )

    def canonicalize(self, pts):
        pts = _chart_rows(pts)
        return self._settle(wrap_unit(pts[:, :2]), pts[:, 2].copy())

    def _settle(self, base, h):
        """Canonical (N, 3) points from wrapped bases and raw heights.

        base (N, 2) and h (N,) are fresh arrays owned by the caller and
        are updated in place.  A pass over the roof (or below zero) maps every
        row at once when every row crosses, as the time-1 map of roof 1
        makes them do, and boolean-indexes the crossing rows otherwise; a
        constant roof is never evaluated.  Both do the same float
        operations per row.
        """
        roof = self.roof
        roof_at = (lambda b: roof.constant) if roof.is_constant else roof.value
        # push up through the ceiling
        for _ in range(10_000):
            r = roof_at(base)
            over = h >= r
            crossing = np.count_nonzero(over)
            if crossing == 0:
                break
            if crossing == h.size:
                h -= r
                base = self.base_map.step(base)
            else:
                h[over] -= np.broadcast_to(r, h.shape)[over]
                base[over] = self.base_map.step(base[over])
        else:  # pragma: no cover
            raise ValueError("height too far above the roof to canonicalize")
        for _ in range(10_000):
            under = h < 0
            crossing = np.count_nonzero(under)
            if crossing == 0:
                break
            if crossing == h.size:
                base = self.base_map.step_back(base)
                h += roof_at(base)
            else:
                base[under] = self.base_map.step_back(base[under])
                h[under] += roof_at(base[under])
        else:  # pragma: no cover
            raise ValueError("height too far below zero to canonicalize")
        return np.concatenate([base, h[:, None]], axis=1)

    def flow(self, pts, t):
        """Time-t flow map, vectorized over (N, 3) chart points."""
        pts = np.asarray(pts, dtype=float)
        rows = _chart_rows(pts)
        out = self._settle(wrap_unit(rows[:, :2]), rows[:, 2] + t)
        return out[0] if pts.ndim == 1 else out

    def random_points(self, rng, count):
        base = rng.random((count, 2))
        h = rng.random(count) * self.roof.value(base)
        return np.concatenate([base, h[:, None]], axis=1)

    def center_time(self, p, q):
        """Flow time t with flow(p, t) = q, or None if q is off the flow line.

        Candidates are the crossing counts k with A^k base(p) = base(q);
        among matches the minimal |t| wins.  Points whose base is periodic
        under A (e.g. the origin) produce several candidates, which is why
        the scan runs over the whole crossing window.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        best = None
        base = p[:2].copy()
        acc = 0.0  # sum of roofs crossed going up
        for k in range(0, _CENTER_TIME_CROSSINGS + 1):
            if torus_distance(base, q[:2]) < _CENTER_TIME_TOL:
                t = q[2] - p[2] + acc
                if best is None or abs(t) < abs(best):
                    best = t
            acc += float(self.roof.value(base))
            base = self.base_map.step(base)
        base = p[:2].copy()
        acc = 0.0
        for _ in range(_CENTER_TIME_CROSSINGS):
            base = self.base_map.step_back(base)
            acc -= float(self.roof.value(base))
            if torus_distance(base, q[:2]) < _CENTER_TIME_TOL:
                t = q[2] - p[2] + acc
                if best is None or abs(t) < abs(best):
                    best = t
        return best


def _chart_rows(pts):
    """Suspension chart points as (N, 3) float rows."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("suspension points have 3 chart coordinates")
    return pts


class MappingTorusSpace:
    """Chart metric on the mapping torus of a hyperbolic base map.

    The distance between canonical points is the minimum chart distance over
    the nearby lifts of either argument through the identification
    (x, roof(x)) ~ (A x, 0).  Within the injectivity scale (pairs closer
    than about 0.2) this behaves as a metric; beyond it the value is a
    documented approximation, so estimators cap their radii at 0.2.
    """

    kind = "mapping_torus"

    def __init__(self, flow):
        self.flow = flow
        self.dim = 3

    def describe(self):
        return ("mapping_torus", self.flow.describe())

    def canonicalize(self, pts):
        return self.flow.canonicalize(pts)

    def lift_reps(self, pts):
        """The identity lift plus one lift through each side of the seam.

        Returns (N, 3, 3): representative r=0 is the point itself, r=1 is
        the image one sheet down (A x, h - roof(x)), r=2 one sheet up
        (A^-1 x, h + roof(A^-1 x)).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        base = pts[:, :2]
        h = pts[:, 2]
        fl = self.flow
        down_base = fl.base_map.step(base)
        down = np.concatenate([down_base, (h - fl.roof.value(base))[:, None]], axis=1)
        up_base = fl.base_map.step_back(base)
        up = np.concatenate([up_base, (h + fl.roof.value(up_base))[:, None]], axis=1)
        return np.stack([pts, down, up], axis=1)

    @property
    def wrap_mask(self):
        return np.array([True, True, False])

    @staticmethod
    def _chart_dist(p, reps):
        # in place where the values allow: a polyline pass measures
        # hundreds of thousands of rows at once
        d = p[..., None, :2] - reps[..., :2]
        np.abs(d, out=d)
        np.minimum(d, 1.0 - d, out=d)
        d *= d
        sq = np.sum(d, axis=-1)
        del d
        dh = p[..., None, 2] - reps[..., 2]
        dh *= dh
        sq += dh
        return np.sqrt(sq, out=sq)

    @staticmethod
    def _rows(p, q):
        """Both point arrays as (N, 3) rows; a single row is broadcast."""
        if p.shape[-1] != 3 or q.shape[-1] != 3:
            raise ValueError("suspension points have 3 chart coordinates")
        p2 = np.atleast_2d(p)
        q2 = np.atleast_2d(q)
        n, m = p2.shape[0], q2.shape[0]
        if n != m and n != 1 and m != 1:
            raise ValueError(f"row counts differ: {n} points against {m}")
        if n == 1 and m != 1:
            p2 = np.broadcast_to(p2, q2.shape)
        if m == 1 and n != 1:
            q2 = np.broadcast_to(q2, p2.shape)
        return p2, q2

    def _lifted_rows(self, p2, q2, d0):
        """Indices of the rows where a seam lift might beat the identity value d0.

        Every seam lift moves one point's height by a roof value, and
        Roof guarantees roof(x) >= roof_min > 0, so each lifted chart
        value is at least roof_min - |p_h - q_h|.  Where d0 + |p_h - q_h|
        is below roof_min, d0 is therefore below every lifted value: it
        is the minimum and argmin picks the identity.  The slack, 1e-9
        times the heights and roof_max involved, covers the rounding of
        the lifted values, which is a few ulps of the same magnitudes.
        Rows that fail the test, NaN rows among them, take the full path.
        """
        roof = self.flow.roof
        ph, qh = p2[:, 2], q2[:, 2]
        slack = 1e-9 * (roof.roof_max + np.abs(ph) + np.abs(qh))
        return np.flatnonzero(~(d0 + np.abs(ph - qh) + slack < roof.roof_min))

    def distance(self, p, q):
        """Symmetrized lift distance (min over lifts of either argument).

        Only rows picked by _lifted_rows build the three lifts of each
        point; elsewhere the identity value is the minimum.  It is the
        same float from either side, because |a - b| = |b - a| exactly,
        so the result is bitwise the six-lift minimum.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        p2, q2 = self._rows(p, q)
        out = self._chart_dist(p2, q2[:, None, :])[:, 0]
        far = self._lifted_rows(p2, q2, out)
        if far.size:
            pf, qf = p2[far], q2[far]
            dq = self._chart_dist(pf, self.lift_reps(qf)).min(axis=-1)
            dp = self._chart_dist(qf, self.lift_reps(pf)).min(axis=-1)
            out[far] = np.minimum(dq, dp)
        if p.ndim == 1 and q.ndim == 1:
            return float(out[0])
        return out

    def displacement(self, p, q):
        """Chart step from p to the lift of q nearest p, row by row.

        As in distance, only rows picked by _lifted_rows compare the three
        lifts of q; elsewhere the identity step is the argmin.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        p2, q2 = self._rows(p, q)
        # compare in the chart with base wrap handled by wrap_diff
        step = np.concatenate(
            [wrap_diff(q2[:, :2], p2[:, :2]), q2[:, 2:] - p2[:, 2:]], axis=1
        )
        far = self._lifted_rows(p2, q2, np.linalg.norm(step, axis=1))
        if far.size:
            pf = p2[far]
            reps = self.lift_reps(q2[far])
            diffs = np.concatenate(
                [
                    wrap_diff(reps[:, :, :2], pf[:, None, :2]),
                    reps[:, :, 2:] - pf[:, None, 2:],
                ],
                axis=2,
            )
            norms = np.linalg.norm(diffs, axis=2)
            step[far] = diffs[np.arange(far.size), np.argmin(norms, axis=1)]
        if p.ndim == 1 and q.ndim == 1:
            return step[0]
        return step

    def lerp(self, p, q, frac):
        """Interpolate toward the lift of q nearest p; canonicalize after."""
        p = np.asarray(p, dtype=float)
        frac = np.asarray(frac, dtype=float)
        if frac.ndim == 1:
            frac = frac[:, None]
        out = self.canonicalize(p + frac * self.displacement(p, q))
        if p.ndim == 1 and np.ndim(q) == 1 and frac.ndim == 0:
            return out[0]
        return out

    def random_points(self, rng, count):
        return self.flow.random_points(rng, count)

    def grid(self, resolution):
        """Probe grid: base resolution^2 times `resolution` height fractions."""
        resolution = _whole(resolution, "resolution")
        if resolution ** 3 > 2 ** 20:
            raise ValueError("suspension grid exceeds the 2^20 cap")
        ax = np.arange(resolution) / resolution
        b1, b2, hf = np.meshgrid(ax, ax, ax, indexing="ij")
        base = np.stack([b1.ravel(), b2.ravel()], axis=-1)
        h = hf.ravel() * self.flow.roof.value(base)
        return np.concatenate([base, h[:, None]], axis=1)


class SystemHandle:
    """Uniform interface: step, step_back, distance, orbits."""

    space = None
    invertible = True
    #: center leaves coincide with flow lines of a reference suspension flow
    preserves_center_leaves = False

    @property
    def dim(self):
        return self.space.dim

    def step(self, pts):
        raise NotImplementedError

    def step_back(self, pts):
        raise NotImplementedError

    def distance(self, p, q):
        return self.space.distance(p, q)

    def describe(self):
        raise NotImplementedError

    def orbit_table(self, pts, n):
        """Iterates 0..n-1 of each point: array of shape (n, N, dim)."""
        if n < 1:
            raise ValueError("orbit length must be >= 1")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((n, pts.shape[0], pts.shape[1]))
        out[0] = self.space.canonicalize(pts)
        for i in range(1, n):
            out[i] = self.step(out[i - 1])
        return out


class ToralMapHandle(SystemHandle):
    """Integer matrix acting on T^d, d in {1, 2, 3}.

    The map is invertible only when |det| = 1, through the exact integer
    inverse.  It is hyperbolic iff no eigenvalue modulus falls within 1e-9
    of 1; a non-hyperbolic matrix is accepted and flagged.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(m == np.round(m)):
            raise ValueError("matrix entries must be integers")
        m = np.round(m).astype(np.int64)
        det = int(round(np.linalg.det(m.astype(float))))
        if det == 0:
            raise ValueError("matrix must be nonsingular")
        self.space = TorusSpace(m.shape[0])
        self.matrix = m
        self.determinant = det
        self.invertible = abs(det) == 1
        self.inverse_matrix = None
        if self.invertible:
            inv = np.rint(np.linalg.inv(m.astype(float))).astype(np.int64)
            if not np.array_equal(m @ inv, np.eye(m.shape[0], dtype=np.int64)):
                raise ValueError("failed to build exact integer inverse")
            self.inverse_matrix = inv
        self.moduli = np.abs(np.linalg.eigvals(m.astype(float)))
        self.hyperbolic = bool(np.all(np.abs(self.moduli - 1.0) > _EIG_TOL))

    def describe(self):
        return ("toral", tuple(map(tuple, self.matrix.tolist())))

    def step(self, pts):
        return _wrap_in_place(_int_matmul(self.matrix, pts))

    def step_back(self, pts):
        if not self.invertible:
            raise ValueError("map is not invertible (|det| != 1)")
        return _wrap_in_place(_int_matmul(self.inverse_matrix, pts))

    @property
    def expansion_factor(self):
        above = self.moduli[self.moduli > 1.0 + _EIG_TOL]
        if above.size == 0:
            return None
        return float(np.min(above))

    def _real_eigvec(self, target_modulus):
        """Unit eigenvector (read-only) of the eigenvalue nearest the modulus."""
        vals, vecs = np.linalg.eig(self.matrix.astype(float))
        idx = int(np.argmin(np.abs(np.abs(vals) - target_modulus)))
        v = vecs[:, idx]
        if np.max(np.abs(v.imag)) > 1e-12:
            raise ValueError("eigenvector is not real")
        v = v.real
        v = v / np.linalg.norm(v)
        # deterministic sign: first nonzero component positive
        nz = np.flatnonzero(np.abs(v) > 1e-12)[0]
        if v[nz] < 0:
            v = -v
        v.setflags(write=False)
        return v

    @functools.cached_property
    def unstable_direction(self):
        f = self.expansion_factor
        if f is None:
            raise ValueError("matrix has no expanding eigenvalue")
        return self._real_eigvec(f)

    @functools.cached_property
    def stable_direction(self):
        below = self.moduli[self.moduli < 1.0 - _EIG_TOL]
        if below.size == 0:
            raise ValueError("matrix has no contracting eigenvalue")
        return self._real_eigvec(float(np.max(below)))


def _int_matmul(m, pts):
    """pts @ m.T for an integer matrix m, as an explicit sum of columns.

    Row i is x[..., 0] * m[i, 0] + x[..., 1] * m[i, 1] + ..., each product
    rounded and summed left to right, so no (N, d) @ (d, d) product goes
    to BLAS and its threads.  That is bitwise what BLAS returns whenever
    the products after the first column are exact (entries 0, ±1, ±2, as
    in the cat map and its inverse); where a BLAS kernel fuses an inexact
    product into the sum, the two can differ in the last bit, and this
    result is the one every machine gives.  Returns a fresh array.
    """
    x = np.asarray(pts, dtype=float)
    d = m.shape[1]
    if x.shape[-1] != d:
        raise ValueError(f"points have dimension {x.shape[-1]}, matrix has {d}")
    out = np.empty(x.shape)
    for i, row in enumerate(m.astype(float)):
        acc = x[..., 0] * row[0]
        for j in range(1, d):
            acc += x[..., j] * row[j]
        out[..., i] = acc
    return out


class TimeTMapHandle(SystemHandle):
    """Time-t map of a suspension flow."""

    preserves_center_leaves = True

    def __init__(self, susp_flow, t):
        if not isinstance(susp_flow, SuspensionFlow):
            raise ValueError("need a SuspensionFlow")
        self.suspension = susp_flow
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError(f"flow time t must be finite, got {self.t}")
        self.space = susp_flow.space

    @property
    def reference_flow(self):
        return self.suspension

    def describe(self):
        return ("time_t", self.suspension.describe(), self.t)

    def step(self, pts):
        return self.suspension.flow(pts, self.t)

    def step_back(self, pts):
        return self.suspension.flow(pts, -self.t)


def _check_rows(what, rows, width, harmonics=True):
    """Raise a ValueError naming the first row that is not `width` finite
    numbers, or, for harmonics, whose m (first entry) is not whole and >= 0."""
    for row in rows:
        vals = tuple(row) if isinstance(row, (tuple, list)) else ()
        if len(vals) != width or not all(
            isinstance(v, numbers.Real) and math.isfinite(v) for v in vals
        ):
            raise ValueError(f"{what} {row!r} must be {width} finite numbers")
        if harmonics and not (vals[0] >= 0 and vals[0] == int(vals[0])):
            raise ValueError(f"{what} {row!r} needs m a whole number >= 0")


@dataclass(frozen=True)
class CenterShear:
    """Fiber shear (x, s) -> flow((x, s), eps * sigma(s)).

    sigma is a trigonometric polynomial in the height coordinate with the
    roof constant as period; it is therefore well defined on the quotient.
    Requires a constant roof so the period matches the seam.
    harmonics: tuple of (m, sin_amp, cos_amp), m a whole number >= 0.  A
    term with a zero amplitude is skipped: it would add +-0.0 to a sum
    that starts at +0.0 and so is never -0.0, which leaves every value
    bitwise as it is wherever w * s is finite.

    The shear moves heights by the height map g(s) = s + eps * sigma(s)
    (:meth:`height`), bases following through the seam.  g - id has
    Lipschitz constant eps * lipschitz(c) < 1/2 on every admissible eps, so
    :meth:`height_inverse` iterates the contraction s -> v - eps * sigma(s).
    """

    harmonics: tuple = ((1, 1.0, 0.0),)

    preserves_center_leaves = True

    def __post_init__(self):
        _check_rows("center shear harmonic", self.harmonics, 3)

    def profile(self, c, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for m, a_sin, a_cos in self.harmonics:
            w = 2.0 * math.pi * m / c
            if a_sin:
                out = out + a_sin * np.sin(w * s)
            if a_cos:
                out = out + a_cos * np.cos(w * s)
        return out

    def lipschitz(self, c):
        return sum(
            2.0 * math.pi * m / c * (abs(a_sin) + abs(a_cos))
            for m, a_sin, a_cos in self.harmonics
        )

    def height(self, c, eps, s):
        """g(s) = s + eps * sigma(s), on unwrapped heights s."""
        return s + eps * self.profile(c, s)

    def height_inverse(self, c, eps, v):
        """The s with g(s) = v.  Each step shrinks the error by a factor
        below 1/2, so 60 steps leave 2^-60 of it beyond rounding; the loop
        stops once a step moves no height by 1e-14."""
        s = v = np.asarray(v, dtype=float)
        for _ in range(60):
            s, prev = v - eps * self.profile(c, s), s
            if np.max(np.abs(s - prev), initial=0.0) < 1e-14:
                break
        return s

    def shear(self, fl, eps, pts):
        """Canonical images of (N, 3) chart points.  sigma has the roof
        constant as period, so the shear commutes with the seam and takes
        the points uncanonicalized; it canonicalizes its output."""
        h = self.height(fl.roof.constant, eps, pts[:, 2])
        return fl._settle(wrap_unit(pts[:, :2]), h)

    def unshear(self, fl, eps, pts):
        pts = fl.canonicalize(pts)
        return fl._settle(pts[:, :2], self.height_inverse(fl.roof.constant, eps, pts[:, 2]))

    def describe(self):
        return ("center_shear", tuple(tuple(h) for h in self.harmonics))


@dataclass(frozen=True)
class BaseShear:
    """Horizontal shear (x, s) -> (x + eps * u(s) * w, s).

    u(s) = sum_m a_m (1 - cos(2 pi m s / c)) / 2 vanishes together with its
    derivative at the seam, so the map is C^1 on the quotient.  Requires a
    constant roof.  harmonics: tuple of (m, a_m), m a whole number >= 0;
    direction: the two components of w.
    """

    direction: tuple = (1.0, 0.0)
    harmonics: tuple = ((1, 1.0),)

    preserves_center_leaves = False

    def __post_init__(self):
        _check_rows("base shear direction", (self.direction,), 2, harmonics=False)
        _check_rows("base shear harmonic", self.harmonics, 2)

    def profile(self, c, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for m, amp in self.harmonics:
            out = out + amp * 0.5 * (1.0 - np.cos(2.0 * math.pi * m * s / c))
        return out

    def lipschitz(self, c):
        nrm = float(np.linalg.norm(self.direction))
        return nrm * sum(
            abs(amp) * math.pi * m / c for m, amp in self.harmonics
        )

    def shear(self, fl, eps, pts):
        """Canonical images of (N, 3) chart points; the shear is defined on
        canonical points, so it canonicalizes them first."""
        out = fl.canonicalize(pts)
        u = eps * self.profile(fl.roof.constant, out[:, 2])
        out[:, :2] = wrap_unit(out[:, :2] + u[:, None] * np.asarray(self.direction))
        return out

    def unshear(self, fl, eps, pts):
        # heights stay put, and (-eps) * p * w is exactly -(eps * p * w)
        return self.shear(fl, -eps, pts)

    def describe(self):
        return ("base_shear", tuple(self.direction), tuple(tuple(h) for h in self.harmonics))


class PerturbedHandle(SystemHandle):
    """Composition  reference_time_t  o  shear  for small shear size eps.

    eps must lie below the admissibility threshold 0.5 / shape.lipschitz(c),
    c the roof constant.  The shear is then a diffeomorphism: a center
    shear's height map g(s) = s + eps * sigma(s) has g' >= 1 - eps *
    lipschitz(c) > 0.5, and g - id contracts by a factor below 1/2, which
    the inverse iterates; a base shear's determinant is 1 (it moves x
    along a fixed direction by an amount that depends on the height).

    Both shapes preserve the horizontal eigenline foliation of the
    reference: a point moves by an amount that depends on its height
    alone, so every point of a segment {(x + tau v, h)} moves alike and
    the segment lands on one eigenline at one height (the seam maps it
    by the base matrix, which keeps each eigenline family).  The
    reference's closed-form (un)stable leaves are therefore this map's
    too.
    """

    def __init__(self, reference, epsilon, shape):
        if not isinstance(reference, TimeTMapHandle):
            raise ValueError("reference must be a time-t map of a suspension flow")
        if not reference.suspension.roof.is_constant:
            raise ValueError("perturbation shapes require a constant roof")
        epsilon = float(epsilon)
        # written so that NaN fails both checks
        if not epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        c = reference.suspension.roof.constant
        lip = shape.lipschitz(c)
        eps_max = 0.5 / lip if lip > 0 else math.inf
        if not epsilon < eps_max:
            raise ValueError(
                f"epsilon {epsilon} is not below the admissibility threshold {eps_max:.6g}"
            )
        self.reference = reference
        self.epsilon = epsilon
        self.shape = shape
        self.space = reference.space
        self.preserves_center_leaves = shape.preserves_center_leaves

    @property
    def reference_flow(self):
        return self.reference.suspension

    def describe(self):
        return (
            "perturbed",
            self.reference.describe(),
            self.epsilon,
            self.shape.describe(),
        )

    def shear(self, pts):
        """The shear of chart points, as canonical (N, 3) points."""
        return self.shape.shear(self.reference.suspension, self.epsilon, _chart_rows(pts))

    def shear_inverse(self, pts):
        return self.shape.unshear(self.reference.suspension, self.epsilon, _chart_rows(pts))

    def step(self, pts):
        return self.reference.step(self.shear(pts))

    def step_back(self, pts):
        return self.shear_inverse(self.reference.step_back(pts))


def cat_map():
    """The standard hyperbolic automorphism [[2, 1], [1, 1]] of T^2."""
    return ToralMapHandle([[2, 1], [1, 1]])


def circle_doubling():
    """x -> 2x mod 1 on the circle; forward-only (degree 2)."""
    return ToralMapHandle([[2]])
