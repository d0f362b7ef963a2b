"""Entropy estimation from separated and spanning counts in Bowen metrics.

d_n(x, y) = max_{0 <= i < n} d(f^i x, f^i y).  Separated counts a(n, delta)
are lower-bound witnesses for entropy, spanning counts b(n, delta) upper
ones; the valid comparison direction for greedy outputs is
b(2 delta) <= a(delta).  Rates come from a least-squares slope of
log(count) against n over an automatically chosen affine window at the
smallest delta of the schedule.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .systems import SystemHandle, _positive_whole, _whole

__all__ = [
    "SampleCloud",
    "SeparatedSet",
    "EntropyEstimate",
    "dn_distance",
    "max_separated",
    "min_spanning_greedy",
    "entropy_estimate",
    "fit_count_table",
    "count_table_violations",
    "exhaustive_max_separated",
    "grid_cloud",
    "random_cloud",
]

#: estimators refuse radii beyond the documented injectivity scale
DELTA_CAP = 0.2


class SampleCloud:
    """Finite point set in a system's phase space.

    Points are canonical and pairwise distinct (duplicates closer than
    1e-12 per coordinate are dropped at construction).  Orbit and
    representative tables are cached per system and shared read-only: a
    request for at most the cached n is a view of the cached table, a
    longer one builds the table afresh.  The cached arrays are marked
    unwritable, which also lets the greedy kernel keep its tree order and
    conflict graph between calls on views of one table.
    """

    def __init__(self, space, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            raise ValueError("sample cloud must be nonempty")
        if points.shape[1] != space.dim:
            raise ValueError(
                f"points have dimension {points.shape[1]}, space has {space.dim}"
            )
        points = space.canonicalize(points)
        self.points = points[_first_of_each_row(np.round(points, 12))]
        self.space = space
        self._orbit_cache = {}

    def __len__(self):
        return self.points.shape[0]

    def _cached(self, key, n, build):
        """The first n rows of the table cached under key.  A request for
        more rows than are cached replaces the table by build(n)."""
        table = self._orbit_cache.get(key)
        if table is None or table.shape[0] < n:
            table = build(n)
            table.setflags(write=False)
            self._orbit_cache[key] = table
        return table[:n]

    def orbit_table(self, sys: SystemHandle, n):
        """(n, N, dim) iterates, cached per system."""
        return self._cached(sys.describe(), n, lambda n: sys.orbit_table(self.points, n))

    def rep_table(self, sys: SystemHandle, n):
        """The other representatives of each orbit point, for the kernels
        at radii up to DELTA_CAP: (n, N, R, C), cached per system.

        R = 0 on the torus, and on a mapping torus when space.lifts_clear
        finds, at every iterate, that no seam lift comes within the padded
        radius of DELTA_CAP of any point (as on product boxes and unstable
        disks well below the roof): at any admissible delta a pair then
        conflicts exactly when it does through prim alone, so no decision
        moves; this is the kernel's only seam-lift screen.  Otherwise
        R = 2: the lifts of space.lift_reps without its first (identity)
        one, at every iterate.
        """
        return self._cached(
            ("reps", sys.describe()), n, lambda n: self._lifts(self.orbit_table(sys, n))
        )

    def _lifts(self, orbits):
        """rep_table's table over the iterates of orbits."""
        radius = _kernels.padded_radius(DELTA_CAP)
        if all(self.space.lifts_clear(o, radius) for o in orbits):
            return np.empty(orbits.shape[:2] + (0, orbits.shape[2]))
        # filled an iterate at a time, so that the build peaks at one table
        out = np.empty(orbits.shape[:2] + (2, orbits.shape[2]))
        for i, o in enumerate(orbits):
            out[i] = self.space.lift_reps(o)[:, 1:]
        return out


def _first_of_each_row(rows):
    """Sorted indices of the first occurrence of each distinct row.

    A stable lexicographic sort puts equal rows next to each other in
    index order, so the first of each run is the first occurrence: the
    same indices as np.unique(rows, axis=0, return_index=True), sorted.
    """
    order = np.lexsort(rows.T)
    s = rows[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(s[1:] != s[:-1], axis=1)
    return np.sort(order[first])


@dataclass(frozen=True)
class SeparatedSet:
    """Indices of a greedy-maximal (n, delta)-separated subset of a cloud."""

    indices: np.ndarray
    n: int
    delta: float
    order_seed: int

    @property
    def count(self):
        return int(self.indices.size)


def _check_radius(delta):
    # written so that NaN fails it
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if delta > DELTA_CAP:
        raise ValueError(
            f"delta {delta} exceeds the supported radius cap {DELTA_CAP}"
        )


def dn_distance(sys: SystemHandle, x, y, n):
    """Bowen distance: max over iterates 0..n-1 of the phase-space metric."""
    n = _positive_whole(n, "n")
    ox = sys.orbit_table(np.atleast_2d(np.asarray(x, dtype=float)), n)
    oy = sys.orbit_table(np.atleast_2d(np.asarray(y, dtype=float)), n)
    best = 0.0
    for i in range(n):
        d = float(np.max(sys.space.distance(ox[i], oy[i])))
        if d > best:
            best = d
    return best


def _require_same_space(sys, cloud):
    if cloud.space is not sys.space and cloud.space.describe() != sys.space.describe():
        raise ValueError("cloud and system live in different spaces")


def _thinned(sys, cloud, n, delta, order):
    """The greedy kernel's accepted indices over the cloud's tables, scanned
    in order."""
    _check_radius(delta)
    n = _positive_whole(n, "n")
    _require_same_space(sys, cloud)
    prim = cloud.orbit_table(sys, n)
    reps = cloud.rep_table(sys, n)
    # by module attribute, so a wrapper of the kernel sees every call
    return _kernels.greedy_thinning(prim, reps, cloud.space.wrap_mask, n, delta, order)


def max_separated(sys: SystemHandle, cloud: SampleCloud, n, delta, order_seed=0):
    """Greedy maximal (n, delta)-separated subset, scanned in seeded order.

    Deterministic given (cloud, n, delta, order_seed).  Every point of the
    cloud not selected is within delta of a selected point in d_n.
    """
    order = np.random.default_rng(order_seed).permutation(len(cloud))
    accepted = _thinned(sys, cloud, n, delta, order)
    return SeparatedSet(indices=accepted, n=int(n), delta=float(delta), order_seed=int(order_seed))


def min_spanning_greedy(sys: SystemHandle, cloud: SampleCloud, n, delta):
    """Greedy delta-cover of the cloud in d_n; count >= the true minimum.

    Centers are taken as the first uncovered point in index order, so they
    are pairwise separated at delta; that makes the sandwich
    b(2 delta) <= a(delta) provable for the greedy outputs.  No order
    relation with max_separated at the same (n, delta) is asserted.
    """
    return int(_thinned(sys, cloud, n, delta, np.arange(len(cloud))).size)


@dataclass(frozen=True)
class EntropyEstimate:
    """Rate fit over a count table indexed by (n, delta)."""

    rate: float
    slope_stderr: float
    fit_window: tuple
    n_schedule: tuple
    delta_schedule: tuple
    order_seed: int
    cloud_size: int
    #: rows (n, delta, count, saturated)
    counts: tuple
    diagnostics: dict = field(default_factory=dict, compare=False)


def _ols_line(xs, ys):
    """Least squares line fit: slope, intercept, slope stderr, max |residual|."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = xs.size
    xb = xs.mean()
    yb = ys.mean()
    sxx = float(np.sum((xs - xb) ** 2))
    if sxx == 0:
        return 0.0, yb, 0.0, float(np.max(np.abs(ys - yb))) if m else 0.0
    slope = float(np.sum((xs - xb) * (ys - yb)) / sxx)
    icpt = yb - slope * xb
    resid = ys - (slope * xs + icpt)
    if m > 2:
        stderr = math.sqrt(float(np.sum(resid ** 2)) / (m - 2) / sxx)
    else:
        stderr = 0.0
    return slope, icpt, stderr, float(np.max(np.abs(resid)))


def _affine_window(ns, logs):
    """Largest contiguous window where the fit is affine within tolerance.

    A window qualifies when its max residual stays below
    max(2 * slope_stderr * span, 0.02 nats); the slope-uncertainty term is
    scaled by the window span to keep the comparison in nats.  Ties prefer
    later windows (closer to the asymptotic regime).
    """
    m = len(ns)
    best = None
    for i in range(m):
        for j in range(i + 2, m):
            slope, _, stderr, maxres = _ols_line(ns[i : j + 1], logs[i : j + 1])
            span = ns[j] - ns[i]
            if maxres <= max(2.0 * stderr * span, 0.02):
                key = (j - i, i)
                if best is None or key > best[0]:
                    best = (key, (i, j, slope, stderr))
    if best is not None:
        i, j, slope, stderr = best[1]
        return i, j, slope, stderr, True
    # fallback: full range, flagged as lacking an affine window
    slope, _, stderr, _ = _ols_line(ns, logs)
    return 0, m - 1, slope, stderr, False


def _column_counts(system, cloud, n_schedule, delta, order_seed):
    """Count rows for one delta column, skipping past first saturation."""
    N = len(cloud)
    rows = []
    saturated_from = None
    for n in n_schedule:
        if saturated_from is not None:
            # saturation persists: count == N means every pair is
            # d_n-separated, and d_{n+1} >= d_n keeps them separated
            rows.append((n, delta, N, 1))
            continue
        sep = max_separated(system, cloud, n, delta, order_seed)
        rows.append((n, delta, sep.count, int(sep.count >= N)))
        if sep.count >= N:
            saturated_from = n
    return rows


#: the function forked workers apply; set just before a pool starts
_FORK_FN = None


def _forked_call(item):  # pragma: no cover - runs inside worker processes
    return _FORK_FN(item)


def _fork_map(fn, items, workers):
    """[fn(item) for item in items], farmed to forked worker processes.

    With workers > 1 (capped at the item count) and the fork start method
    available, workers inherit fn and everything it reads copy-on-write,
    so fn may be a closure; only items and results are pickled.  Results
    come back in item order, so a deterministic fn gives the same list for
    any worker count.
    """
    global _FORK_FN
    items = list(items)
    use_workers = min(int(workers), len(items))
    if use_workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    _FORK_FN = fn
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=use_workers, mp_context=ctx) as pool:
            return list(pool.map(_forked_call, items))
    finally:
        _FORK_FN = None


def entropy_estimate(
    sys: SystemHandle,
    cloud: SampleCloud,
    n_schedule,
    delta_schedule,
    order_seed=0,
    workers=1,
):
    """Separated-count table plus a rate fit at the smallest delta.

    Counts that hit the cloud size are flagged saturated and excluded from
    the fit window.  With an all-flat table the rate degenerates to 0.

    Delta columns are mutually independent, so workers > 1 farms them to
    forked processes; every row depends only on (system, cloud, n, delta,
    order_seed), hence the table is identical for any worker count.
    """
    n_schedule = sorted(set(_whole(n, "each n_schedule entry") for n in n_schedule))
    if not n_schedule or n_schedule[0] < 1:
        raise ValueError("n_schedule must contain integers >= 1")
    delta_schedule = sorted(set(float(d) for d in delta_schedule), reverse=True)
    if not delta_schedule:
        raise ValueError("delta_schedule must be nonempty")
    for d in delta_schedule:
        _check_radius(d)
    n_max = n_schedule[-1]
    # warm the caches once; forked workers inherit the tables copy-on-write
    cloud.rep_table(sys, n_max)
    N = len(cloud)
    columns = _fork_map(
        lambda delta: _column_counts(sys, cloud, n_schedule, delta, order_seed),
        delta_schedule,
        workers,
    )
    rows = [row for column in columns for row in column]
    rate, stderr, window, found = fit_count_table(rows)
    diagnostics = {"affine_window_found": found}
    # per-delta slopes over unsaturated rows, for diagnostics
    per_delta = {}
    for delta in delta_schedule:
        sel = [(r[0], math.log(r[2])) for r in rows if r[1] == delta and not r[3]]
        if len(sel) >= 2:
            s, _, _, _ = _ols_line([x for x, _ in sel], [y for _, y in sel])
            per_delta[delta] = s
    diagnostics["per_delta_slopes"] = per_delta
    return EntropyEstimate(
        rate=rate,
        slope_stderr=stderr,
        fit_window=window,
        n_schedule=tuple(n_schedule),
        delta_schedule=tuple(delta_schedule),
        order_seed=int(order_seed),
        cloud_size=N,
        counts=tuple(rows),
        diagnostics=diagnostics,
    )


def fit_count_table(rows):
    """Rate fit of a count table of (n, delta, count, saturated) rows.

    Fits log(count) against n over the unsaturated rows at the smallest
    delta: an affine window when there are at least three, the line
    through both when there are two.  The rate is the slope clipped at 0,
    and 0 when every count is equal.  Returns (rate, slope_stderr,
    fit_window, affine_window_found).
    """
    d_min = min(r[1] for r in rows)
    fit_rows = [r for r in rows if r[1] == d_min and not r[3]]
    ns = [r[0] for r in fit_rows]
    logs = [math.log(r[2]) for r in fit_rows]
    found = False
    if len(fit_rows) >= 3:
        i, j, slope, stderr, found = _affine_window(ns, logs)
        window = (ns[i], ns[j])
    elif len(fit_rows) == 2:
        slope = (logs[1] - logs[0]) / (ns[1] - ns[0])
        stderr = 0.0
        window = (ns[0], ns[1])
    else:
        slope, stderr = 0.0, 0.0
        n_first = min(r[0] for r in rows)
        window = (n_first, n_first)
    if len(set(r[2] for r in rows)) == 1:
        slope, stderr = 0.0, 0.0  # degenerate: all counts equal
    return max(slope, 0.0), stderr, window, found


def count_table_violations(rows):
    """Monotonicity violations in a count table.

    Checks counts nondecreasing in n at fixed delta and nonincreasing in
    delta at fixed n.  Returns a list of human-readable strings.
    """
    out = []
    by_delta = {}
    by_n = {}
    for n, delta, count, _sat in rows:
        by_delta.setdefault(delta, []).append((n, count))
        by_n.setdefault(n, []).append((delta, count))
    for delta, seq in by_delta.items():
        seq.sort()
        for (n0, c0), (n1, c1) in zip(seq, seq[1:]):
            if c1 < c0:
                out.append(f"count drops from {c0} to {c1} between n={n0} and n={n1} at delta={delta}")
    for n, seq in by_n.items():
        seq.sort(reverse=True)
        for (d0, c0), (d1, c1) in zip(seq, seq[1:]):
            if c1 < c0:
                out.append(f"count drops from {c0} to {c1} between delta={d0} and delta={d1} at n={n}")
    return out


def exhaustive_max_separated(dn_matrix, delta):
    """True maximum (n, delta)-separated cardinality by subset search.

    Branch and bound over the separation graph; intended for clouds of at
    most ~15 points as an oracle against the greedy pass.
    """
    dn_matrix = np.asarray(dn_matrix, dtype=float)
    m = dn_matrix.shape[0]
    if m > 22:
        raise ValueError("exhaustive search capped at 22 points")
    adj = dn_matrix > delta  # edge = pair may coexist
    best = 0

    def extend(chosen_count, candidates):
        nonlocal best
        if chosen_count + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, chosen_count)
            return
        v = candidates[0]
        rest = candidates[1:]
        extend(chosen_count + 1, [u for u in rest if adj[v, u]])
        extend(chosen_count, rest)

    extend(0, list(range(m)))
    return best


def grid_cloud(sys: SystemHandle, resolution):
    """Uniform grid cloud; resolution floor is delta >= 4 * grid step."""
    pts = sys.space.grid(resolution)
    return SampleCloud(sys.space, pts)


def random_cloud(sys: SystemHandle, count, seed):
    rng = np.random.default_rng(seed)
    pts = sys.space.random_points(rng, int(count))
    return SampleCloud(sys.space, pts)
