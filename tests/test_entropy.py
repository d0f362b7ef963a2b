import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import _kernels, entropy, foliation, systems
from entroflow.entropy import (
    SampleCloud,
    count_table_violations,
    dn_distance,
    entropy_estimate,
    exhaustive_max_separated,
    grid_cloud,
    max_separated,
    min_spanning_greedy,
    random_cloud,
)

from conftest import LOG_LAMBDA

CAT = systems.cat_map()

coords = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
torus_points = st.tuples(coords, coords)


def dn_matrix(sys, pts, n):
    m = len(pts)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = dn_distance(sys, pts[i], pts[j], n)
    return out


def naive_max_separated(dist, delta):
    m = dist.shape[0]
    best = 0
    for r in range(m, 0, -1):
        for sub in itertools.combinations(range(m), r):
            if all(dist[i, j] > delta for i, j in itertools.combinations(sub, 2)):
                return r
    return best


def test_dn_one_step_is_phase_metric(rng):
    pts = rng.random((10, 2))
    for i in range(0, 10, 2):
        x, y = pts[i], pts[i + 1]
        assert dn_distance(CAT, x, y, 1) == pytest.approx(
            float(systems.torus_distance(x, y)), abs=1e-14
        )


def test_dn_frozen_example():
    # orbits of (0.1, 0.2) and (0.12, 0.2) under the cat map, three steps
    x, y = np.array([0.1, 0.2]), np.array([0.12, 0.2])
    seps = []
    ox, oy = x.copy(), y.copy()
    for _ in range(3):
        seps.append(float(systems.torus_distance(ox, oy)))
        ox, oy = CAT.step(ox), CAT.step(oy)
    assert dn_distance(CAT, x, y, 3) == pytest.approx(max(seps), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(x=torus_points, y=torus_points, n=st.integers(1, 5))
def test_dn_metric_axioms(x, y, n):
    x, y = np.array(x), np.array(y)
    dxy = dn_distance(CAT, x, y, n)
    assert dxy >= 0.0
    assert dn_distance(CAT, y, x, n) == pytest.approx(dxy, abs=1e-12)
    assert dn_distance(CAT, x, x, n) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(x=torus_points, y=torus_points, z=torus_points, n=st.integers(1, 4))
def test_dn_triangle_inequality(x, y, z, n):
    x, y, z = np.array(x), np.array(y), np.array(z)
    dxz = dn_distance(CAT, x, z, n)
    dxy = dn_distance(CAT, x, y, n)
    dyz = dn_distance(CAT, y, z, n)
    assert dxz <= dxy + dyz + 1e-12


@settings(max_examples=25, deadline=None)
@given(x=torus_points, y=torus_points, n=st.integers(1, 5))
def test_dn_nondecreasing_in_n(x, y, n):
    x, y = np.array(x), np.array(y)
    assert dn_distance(CAT, x, y, n + 1) >= dn_distance(CAT, x, y, n) - 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 4),
    delta=st.floats(0.02, 0.2),
)
def test_greedy_separation_and_maximality(seed, n, delta):
    cloud = random_cloud(CAT, 30, seed)
    sep = max_separated(CAT, cloud, n, delta, order_seed=seed)
    chosen = cloud.points[sep.indices]
    for i in range(sep.count):
        for j in range(i + 1, sep.count):
            assert dn_distance(CAT, chosen[i], chosen[j], n) > delta
    # maximality: every cloud point sits within delta of a chosen point
    for p in cloud.points:
        dmin = min(dn_distance(CAT, p, q, n) for q in chosen)
        assert dmin <= delta + 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3), delta=st.floats(0.02, 0.1))
def test_sandwich_spanning_at_double_radius(seed, n, delta):
    cloud = random_cloud(CAT, 25, seed)
    a_delta = max_separated(CAT, cloud, n, delta).count
    b_two_delta = min_spanning_greedy(CAT, cloud, n, 2.0 * delta)
    assert b_two_delta <= a_delta


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3), delta=st.floats(0.03, 0.2))
def test_exhaustive_matches_subset_enumeration(seed, n, delta):
    cloud = random_cloud(CAT, 10, seed)
    dist = dn_matrix(CAT, cloud.points, n)
    assert exhaustive_max_separated(dist, delta) == naive_max_separated(dist, delta)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), delta=st.floats(0.03, 0.2))
def test_greedy_within_factor_two_of_exhaustive(seed, delta):
    n = 2
    cloud = random_cloud(CAT, 15, seed)
    dist = dn_matrix(CAT, cloud.points, n)
    true_max = exhaustive_max_separated(dist, delta)
    greedy = max_separated(CAT, cloud, n, delta, order_seed=seed).count
    assert greedy <= true_max
    assert 2 * greedy >= true_max


def test_exhaustive_monotone_in_n_and_delta(rng):
    cloud = random_cloud(CAT, 12, 5)
    for delta in (0.05, 0.1):
        counts = [
            exhaustive_max_separated(dn_matrix(CAT, cloud.points, n), delta)
            for n in range(1, 5)
        ]
        assert counts == sorted(counts)
    for n in (1, 3):
        dist = dn_matrix(CAT, cloud.points, n)
        by_delta = [exhaustive_max_separated(dist, d) for d in (0.05, 0.1, 0.2)]
        assert by_delta == sorted(by_delta, reverse=True)


def test_order_robustness_counts_and_rate():
    cloud = random_cloud(CAT, 200, 11)
    counts = [
        max_separated(CAT, cloud, 4, 0.1, order_seed=s).count for s in range(5)
    ]
    assert max(counts) <= 2 * min(counts)
    rates = [
        entropy_estimate(CAT, cloud, range(1, 7), (0.2, 0.1), order_seed=s).rate
        for s in (0, 1)
    ]
    assert abs(rates[0] - rates[1]) <= 0.05


def test_identity_circle_grid_sandwich():
    ident = systems.ToralMapHandle([[1]])
    cloud = grid_cloud(ident, 100)
    count = max_separated(ident, cloud, 5, 0.05).count
    # spanning floor 10 and the delta/2 ceiling 20 bracket any maximal set
    assert 10 <= count <= 20


def test_identity_estimate_rate_zero():
    ident = systems.ToralMapHandle([[1, 0], [0, 1]])
    est = entropy_estimate(ident, grid_cloud(ident, 16), range(1, 6), (0.2, 0.1))
    assert est.rate == pytest.approx(0.0, abs=1e-12)


def test_estimate_doubling_small_grid():
    sys_ = systems.circle_doubling()
    est = entropy_estimate(sys_, grid_cloud(sys_, 512), range(1, 9), (0.2, 0.1))
    assert est.rate == pytest.approx(math.log(2.0), rel=0.10)
    assert not count_table_violations(est.counts)


def test_estimate_worker_counts_identical():
    cloud = grid_cloud(CAT, 48)
    one = entropy_estimate(CAT, cloud, range(1, 6), (0.2, 0.1), workers=1)
    two = entropy_estimate(CAT, cloud, range(1, 6), (0.2, 0.1), workers=2)
    assert one.counts == two.counts
    assert one.rate == two.rate
    assert one.fit_window == two.fit_window


def test_count_table_violation_messages():
    good = [(1, 0.1, 5, False), (2, 0.1, 9, False)]
    assert count_table_violations(good) == []
    drop_n = [(1, 0.1, 9, False), (2, 0.1, 5, False)]
    msgs = count_table_violations(drop_n)
    assert len(msgs) == 1 and "n=1" in msgs[0] and "delta=0.1" in msgs[0]
    drop_delta = [(3, 0.2, 9, False), (3, 0.1, 5, False)]
    msgs = count_table_violations(drop_delta)
    assert len(msgs) == 1 and "n=3" in msgs[0] and "delta=0.2" in msgs[0]


def test_cloud_rejects_mismatched_dimension():
    with pytest.raises(ValueError, match="dimension"):
        SampleCloud(CAT.space, np.zeros((4, 3)))


def test_cloud_on_another_suspension_is_rejected(time1, rng):
    # same kind and dimension as the constant-roof chart, but another roof
    other = systems.SuspensionFlow(
        systems.ToralMapHandle([[2, 1], [1, 1]]),
        systems.Roof(1.0, [((1, 0), 0.3)]),
    )
    cloud = SampleCloud(other.space, other.random_points(rng, 50))
    with pytest.raises(ValueError, match="different spaces"):
        max_separated(time1, cloud, 2, 0.1)
    with pytest.raises(ValueError, match="different spaces"):
        min_spanning_greedy(time1, cloud, 2, 0.1)
    # an equal flow built separately is the same space
    same = systems.SuspensionFlow(systems.ToralMapHandle([[2, 1], [1, 1]]), 1.0)
    cloud = SampleCloud(same.space, same.random_points(rng, 50))
    assert max_separated(time1, cloud, 2, 0.1).count > 0


def test_cloud_drops_duplicates():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.4]])
    assert len(SampleCloud(CAT.space, pts)) == 2


def _unique_first_rows(rows):
    """Sorted first-occurrence indices of the distinct rows, by np.unique."""
    _, keep = np.unique(rows, axis=0, return_index=True)
    return np.sort(keep)


def test_dedup_keeps_the_rows_unique_keeps():
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 1000, (60, 3)) / 1000.0
    signed = np.array(
        [[0.0, 0.5, 0.0], [-0.0, 0.5, 0.0], [0.5, -0.0, 0.0], [0.5, 0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]
    )
    # rows that agree on their leading columns and differ only in a later one
    ties = np.array([[0.25, c1, c2] for c1 in (0.5, 0.25, 0.5) for c2 in (0.75, 0.125)])
    cases = {
        "exact duplicates": np.concatenate([grid, grid[::3], grid[:5]]),
        "equal after rounding": np.concatenate([grid, grid[:20] + 1e-14, grid[10:30] - 1e-14]),
        "signed zeros": signed,
        "ties across columns": ties[rng.permutation(ties.shape[0])],
    }
    for name, rows in cases.items():
        rounded = np.round(rows, 12)
        keep = entropy._first_of_each_row(rounded)
        assert keep.tolist() == _unique_first_rows(rounded).tolist(), name
        assert keep.size < rows.shape[0], name
    # through the cloud, whose points are canonicalised first
    pts = np.concatenate([grid[:, :2], grid[:, :2] + 1.0, grid[:7, :2] - 1e-14])
    canonical = CAT.space.canonicalize(pts)
    expect = canonical[_unique_first_rows(np.round(canonical, 12))]
    assert SampleCloud(CAT.space, pts).points.tobytes() == expect.tobytes()


def test_delta_validation():
    cloud = random_cloud(CAT, 10, 0)
    with pytest.raises(ValueError, match="positive"):
        max_separated(CAT, cloud, 1, 0.0)
    with pytest.raises(ValueError, match="cap"):
        max_separated(CAT, cloud, 1, 0.5)
    with pytest.raises(ValueError, match=">= 1"):
        max_separated(CAT, cloud, 0, 0.1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_a_radius_that_is_not_finite_is_rejected(delta):
    # NaN passed both delta <= 0 and delta > DELTA_CAP, and every entry
    # point then died inside numpy with "need at least one array to
    # concatenate"
    cloud = random_cloud(CAT, 10, 0)
    prim, reps = cloud.orbit_table(CAT, 1), cloud.rep_table(CAT, 1)
    calls = [
        lambda: max_separated(CAT, cloud, 1, delta),
        lambda: min_spanning_greedy(CAT, cloud, 1, delta),
        lambda: entropy_estimate(CAT, cloud, [1, 2], [0.1, delta]),
        lambda: _kernels.greedy_thinning(prim, reps, CAT.space.wrap_mask, 1, delta, np.arange(10)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            call()


def test_grid_cloud_sizes():
    assert len(grid_cloud(CAT, 16)) == 256
    assert len(grid_cloud(systems.circle_doubling(), 64)) == 64


def test_rep_tables_hold_the_other_representatives():
    # a point is its own representative, so the table leaves it out: none
    # are left on the torus, the two seam lifts on a mapping torus
    for handle in (CAT, systems.circle_doubling()):
        cloud = random_cloud(handle, 40, 0)
        reps = cloud.rep_table(handle, 3)
        assert reps.shape == (3, len(cloud), 0, handle.space.dim)
    # the seam clouds reach their lifts, so they keep them
    time1 = KERNEL_SYSTEMS["suspension_time1"]()[0]
    for seed in range(3):
        cloud = _seam_cloud(time1, seed)
        want = _lift_table(time1.space, cloud.orbit_table(time1, 3))
        reps = cloud.rep_table(time1, 3)
        assert reps.shape == (3, len(cloud), 2, 3)
        assert reps.tobytes() == want.tobytes()


# --- kernel equivalence ------------------------------------------------------


def brute_force_conflicts(prim, reps, wrap_mask, n, delta):
    """Full pair matrix of the symmetrized conflict rule.

    reps holds the other representatives of each point; a point is also its
    own.  A pair conflicts when, at every iterate below n, the smaller of
    min_r |prim_i - rep_j,r|^2 and min_r |prim_j - rep_i,r|^2 over all the
    representatives (wrapped axes taken mod 1) is at most delta^2.
    """
    wrap = np.asarray(wrap_mask, dtype=bool)
    m = prim.shape[1]
    conflict = np.ones((m, m), dtype=bool)
    for it in range(n):
        one_way = np.full((m, m), np.inf)
        for other in [prim[it]] + [reps[it][:, r] for r in range(reps.shape[2])]:
            diff = prim[it][:, None, :] - other[None, :, :]
            diff[..., wrap] -= np.round(diff[..., wrap])
            one_way = np.minimum(one_way, np.sum(diff * diff, axis=-1))
        conflict &= np.minimum(one_way, one_way.T) <= delta * delta
    return conflict


def greedy_over(conflict, order):
    """Points accepted in scan order: each conflicts with none accepted before it."""
    accepted = []
    for idx in order:
        if not conflict[idx, accepted].any():
            accepted.append(int(idx))
    return accepted


def brute_force_greedy(prim, reps, wrap_mask, n, delta, order):
    """Ordered greedy over the full pair matrix of the symmetrized rule."""
    return greedy_over(brute_force_conflicts(prim, reps, wrap_mask, n, delta), order)


def _no_reps(prim):
    """A read-only table of no other representatives for prim, as on the torus."""
    reps = np.zeros(prim.shape[:2] + (0, prim.shape[2]))
    reps.setflags(write=False)
    return reps


def _no_carry(monkeypatch):
    """Keep no conflict graph for a later n: every cell lists its own."""
    monkeypatch.setattr(_kernels._Kept, "take_graph", lambda self, delta, n: None)


def _seam_cloud(handle, seed):
    """Suspension points near the roof plus their short flow images.

    Images pushed past the roof cross the seam, so their closeness to the
    original point is seen only through a seam lift.
    """
    rng = np.random.default_rng(seed)
    base = rng.random((30, 2))
    h = rng.uniform(0.0, 1.0, 30)
    h[:15] = rng.uniform(0.9, 1.0, 15)
    pts = np.concatenate([base, h[:, None]], axis=1)
    images = pts[:15].copy()
    images[:, 2] += rng.uniform(0.01, 0.12, 15)
    return SampleCloud(handle.space, np.concatenate([pts, images]))


KERNEL_SYSTEMS = {
    "circle_doubling": lambda: (
        systems.circle_doubling(),
        lambda s, seed: random_cloud(s, 60, seed),
    ),
    "cat_map": lambda: (CAT, lambda s, seed: random_cloud(s, 80, seed)),
    "suspension_time1": lambda: (
        systems.TimeTMapHandle(
            systems.SuspensionFlow(systems.ToralMapHandle([[2, 1], [1, 1]]), systems.Roof(1.0)),
            1.0,
        ),
        _seam_cloud,
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("path", ["join", "scan", "carry"])
def test_kernel_matches_brute_force_greedy(name, delta, path, monkeypatch):
    # small chunks split the candidate lists; a zero join budget sends
    # every cell through the blocked scan instead of the self-join; the
    # join path keeps no graph, so every cell lists its own, and the carry
    # path filters the graph of the last n
    monkeypatch.setattr(_kernels, "CHUNK_PAIRS", 64)
    if path == "scan":
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 0)
    if path == "join":
        _no_carry(monkeypatch)
    handle, make_cloud = KERNEL_SYSTEMS[name]()
    for seed in range(3):
        cloud = make_cloud(handle, seed)
        prim = cloud.orbit_table(handle, 4)
        reps = cloud.rep_table(handle, 4)
        wrap = cloud.space.wrap_mask
        orders = [np.arange(len(cloud))] + [
            np.random.default_rng(s).permutation(len(cloud)) for s in range(4)
        ]
        for n in (1, 2, 4):
            for order in orders:
                got = _kernels.greedy_thinning(prim, reps, wrap, n, delta, order)
                assert got.tolist() == brute_force_greedy(prim, reps, wrap, n, delta, order)


def _dense_seam_cloud(handle, seed, size):
    """A shrunken seam cloud: a narrow column of points just below the roof,
    and the flow images of half of them pushed across the seam."""
    rng = np.random.default_rng(seed)
    base = 0.45 + 0.1 * rng.random((size, 2))
    pts = np.concatenate([base, rng.uniform(0.9, 1.0, (size, 1))], axis=1)
    images = pts[: size // 2].copy()
    images[:, 2] += rng.uniform(0.01, 0.12, size // 2)
    return SampleCloud(handle.space, np.concatenate([pts, images]))


def _join_fails_at_the_leaves(monkeypatch):
    """Make every self-join list all levels above the leaves, then give up;
    record the level each scan then starts its queries from."""
    self_join = _kernels._self_join
    partners = _kernels._Partners
    starts = []

    def leaves_fail(tree, its, r2):
        with monkeypatch.context() as m:
            m.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 1 << 40)
            assert self_join(tree, its, r2) is not None
        # the level above the leaves is listed in full and stays on the tree
        assert tree.pairs[0] == len(tree.levels) - 2
        return None

    def counted(tree):
        got = partners(tree)
        starts.append(got.level)
        return got

    monkeypatch.setattr(_kernels, "_self_join", leaves_fail)
    monkeypatch.setattr(_kernels, "_Partners", counted)
    return starts


SCAN_CASES = [("cat_map", 0.2), ("cat_map", 0.1), ("suspension_time1", 0.05), ("suspension_time1", 0.02)]


@pytest.mark.parametrize(
    "name, delta, join_fails",
    [pytest.param(name, delta, "at_level_1", id=f"{name}-{delta}") for name, delta in SCAN_CASES]
    + [
        pytest.param(name, delta, "at_the_leaves", id=f"{name}-{delta}-at_the_leaves")
        for name, delta in SCAN_CASES
    ],
)
def test_scan_matches_brute_force_across_blocks(name, delta, join_fails, monkeypatch):
    # clouds of over a thousand points: the scan resolves many blocks, and
    # dense ones, so a conflict dropped inside a block or by the removal
    # of the points an accepted one covers changes the accepted sequence.
    # A join that fails at level 1 leaves only the root to start the
    # queries from; one that fails at the leaves leaves the partners of
    # every node one level up, a query misses any point they do not cover
    monkeypatch.setattr(_kernels, "CHUNK_PAIRS", 256)
    if join_fails == "at_level_1":
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 0)
    else:
        starts = _join_fails_at_the_leaves(monkeypatch)
    handle, _ = KERNEL_SYSTEMS[name]()
    if name == "cat_map":
        cloud = grid_cloud(handle, 32)
    else:
        cloud = _dense_seam_cloud(handle, 0, 700)
    assert len(cloud) >= 1000
    prim = cloud.orbit_table(handle, 4)
    reps = cloud.rep_table(handle, 4)
    wrap = cloud.space.wrap_mask
    orders = [np.arange(len(cloud))] + [
        np.random.default_rng(s).permutation(len(cloud)) for s in range(2)
    ]
    sizes = []
    for n in (1, 2, 4):
        conflict = brute_force_conflicts(prim, reps, wrap, n, delta)
        for order in orders:
            want = greedy_over(conflict, order)
            got = _kernels.greedy_thinning(prim, reps, wrap, n, delta, order)
            assert got.tolist() == want
            sizes.append(len(want))
    # some cell accepts several blocks' worth of points and removes most
    assert any(2 * _kernels.SCAN_BLOCK < a < len(cloud) // 2 for a in sizes)
    if join_fails == "at_the_leaves":
        assert len(starts) == len(sizes) and min(starts) > 0


@pytest.mark.parametrize("join_fails", ["at_level_1", "at_the_leaves"])
def test_scan_on_a_product_box_prunes_dead_subtrees(time1, join_fails, monkeypatch):
    # a 12^3 product box, the criterion-5 box cloud shrunk, scanned at half
    # its scale.  A query drops every node whose points are all dead before
    # testing its box; the alive counts are taken once per block, so they
    # may count points that died since, never miss one that is alive.  The
    # accepted sequences must stay the brute-force greedy's, and the
    # queries must test fewer node boxes and return fewer candidates than
    # the descent that counts every point as alive.  A join that fails at
    # the leaves leaves partners one level above them, below the level
    # where queries stop, so those queries test no box and only their
    # candidates show the pruning
    if join_fails == "at_level_1":
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 0)
    else:
        _join_fails_at_the_leaves(monkeypatch)
    box = foliation.build_product_box(time1, np.array([0.2, 0.3, 0.37]), 0.05, 12)
    cloud = SampleCloud(time1.space, box.d_samples)
    assert len(cloud) == 1728
    prim = cloud.orbit_table(time1, 3)
    reps = cloud.rep_table(time1, 3)
    wrap = cloud.space.wrap_mask
    delta = 0.025
    cells = []
    for n in (1, 2, 3):
        conflict = brute_force_conflicts(prim, reps, wrap, n, delta)
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(len(cloud))
            cells.append((n, order, greedy_over(conflict, order)))
    close, query = _kernels._Tree.close, _kernels._query
    # per descent: node boxes tested, candidates returned
    tested = []

    def counted_close(self, its, r2, La, ia, Lb, ib):
        if La is None:
            tested[-1][0] += ia.size
        return close(self, its, r2, La, ia, Lb, ib)

    def counted_query(*args):
        got = query(*args)
        tested[-1][1] += got[1].size
        return got

    monkeypatch.setattr(_kernels._Tree, "close", counted_close)
    monkeypatch.setattr(_kernels, "_query", counted_query)
    alive_counts = _kernels._Tree.alive_counts
    for pruned in (True, False):
        tested.append([0, 0])
        with monkeypatch.context() as m:
            if not pruned:
                m.setattr(
                    _kernels._Tree,
                    "alive_counts",
                    lambda self, alive, deepest: alive_counts(self, np.ones_like(alive), deepest),
                )
            for n, order, want in cells:
                assert _kernels.greedy_thinning(prim, reps, wrap, n, delta, order).tolist() == want
    assert any(2 * _kernels.SCAN_BLOCK < len(want) for _, _, want in cells)
    (boxes, candidates), (all_boxes, all_candidates) = tested
    assert 0 < candidates < all_candidates
    if join_fails == "at_level_1":
        assert 0 < boxes < all_boxes
    else:
        assert boxes == all_boxes == 0


def test_a_join_that_gives_up_leaves_its_last_full_level(monkeypatch):
    # with the default budget the 32^2 cat-map grid at delta = 0.2 lists
    # every level but the leaves; the scan starts from that level, which
    # holds every pair of nodes whose boxes come within the radius
    cloud = grid_cloud(CAT, 32)
    prim = cloud.orbit_table(CAT, 1)
    reps = cloud.rep_table(CAT, 1)
    wrap = cloud.space.wrap_mask
    joins = _count_joins(monkeypatch)
    trees = []
    partners = _kernels._Partners
    monkeypatch.setattr(_kernels, "_Partners", lambda tree: trees.append(tree) or partners(tree))
    order = np.random.default_rng(0).permutation(len(cloud))
    got = _kernels.greedy_thinning(prim, reps, wrap, 1, 0.2, order)
    assert got.tolist() == brute_force_greedy(prim, reps, wrap, 1, 0.2, order)
    assert joins == [(1, False)]
    (tree,) = trees
    level, pa, pb = tree.pairs
    assert level == len(tree.levels) - 2
    # brute force over the level's node pairs: the listed ones are those
    # whose boxes are within the radius
    nodes = tree.levels[level].size - 1
    a, b = np.triu_indices(nodes)
    r2 = (0.2 * (1 + _kernels.RADIUS_PAD[0]) + _kernels.RADIUS_PAD[1]) ** 2
    close = tree.close([0], r2, level, a, level, b)
    assert sorted(zip(pa.tolist(), pb.tolist())) == sorted(zip(a[close].tolist(), b[close].tolist()))


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
@pytest.mark.parametrize("path", ["join", "scan"])
def test_an_explicit_identity_copy_gives_the_same_sets(name, path, monkeypatch):
    # tables in the older layout, whose representatives start with a copy
    # of prim: the copy only repeats the prim-against-prim comparison
    if path == "scan":
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 0)
    handle, make_cloud = KERNEL_SYSTEMS[name]()
    cloud = make_cloud(handle, 1)
    prim = cloud.orbit_table(handle, 4)
    reps = cloud.rep_table(handle, 4)
    with_copy = np.concatenate([prim[:, :, None, :], reps], axis=2)
    wrap = cloud.space.wrap_mask
    for n in (1, 2, 4):
        for delta in (0.05, 0.2):
            order = np.random.default_rng(n).permutation(len(cloud))
            want = brute_force_greedy(prim, reps, wrap, n, delta, order)
            assert _kernels.greedy_thinning(prim, with_copy, wrap, n, delta, order).tolist() == want
            assert _kernels.greedy_thinning(prim, reps, wrap, n, delta, order).tolist() == want


def test_brute_force_rule_needs_seam_lifts():
    # the seam cloud must contain pairs that only a seam lift brings close,
    # else the suspension case above would not exercise the lifts
    handle, make_cloud = KERNEL_SYSTEMS["suspension_time1"]()
    cloud = make_cloud(handle, 0)
    prim = cloud.orbit_table(handle, 1)
    reps = cloud.rep_table(handle, 1)
    order = np.arange(len(cloud))
    with_lifts = brute_force_greedy(prim, reps, cloud.space.wrap_mask, 1, 0.1, order)
    identity_only = brute_force_greedy(prim, reps[:, :, :0], cloud.space.wrap_mask, 1, 0.1, order)
    assert len(with_lifts) < len(identity_only)


# --- the ordered greedy in rounds --------------------------------------------


def _graph_matrix(N, i, j):
    """The symmetric conflict matrix of the edges (i, j)."""
    conflict = np.zeros((N, N), dtype=bool)
    conflict[i, j] = conflict[j, i] = True
    return conflict


def _random_graph(rng, N, edges):
    """edges random pairs of distinct vertices, as int32 like a listed graph."""
    i = rng.integers(0, N, edges)
    j = (i + rng.integers(1, N, edges)) % N
    return i.astype(np.int32), j.astype(np.int32)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_vertex", [0.3, 2.0, 12.0])
def test_edge_greedy_matches_the_sequential_scan(seed, per_vertex):
    # a sparse graph has many isolated vertices, a dense one needs many
    # rounds; each graph is also given with every edge repeated and reversed
    rng = np.random.default_rng(seed)
    N = 300
    i, j = _random_graph(rng, N, int(per_vertex * N))
    conflict = _graph_matrix(N, i, j)
    orders = [np.arange(N), np.arange(N)[::-1].copy()] + [rng.permutation(N) for _ in range(3)]
    for order in orders:
        want = greedy_over(conflict, order)
        assert _kernels._edge_greedy(i, j, order).tolist() == want
        twice = np.concatenate([i, j, i]), np.concatenate([j, i, j])
        assert _kernels._edge_greedy(*twice, order).tolist() == want


def test_edge_greedy_without_edges_accepts_the_order():
    order = np.random.default_rng(0).permutation(50)
    none = np.zeros(0, dtype=np.int32)
    assert _kernels._edge_greedy(none, none, order).tolist() == order.tolist()
    assert _kernels._edge_greedy(none, none, np.zeros(0, dtype=np.int64)).tolist() == []


def _count_finishes(monkeypatch):
    """Record the number of kept edges each time the rounds hand over."""
    finishes = []
    finish = _kernels._finish

    def counted(undecided, lo, hi):
        finishes.append(lo.size)
        finish(undecided, lo, hi)

    monkeypatch.setattr(_kernels, "_finish", counted)
    return finishes


@pytest.mark.parametrize("dense_part", [False, True])
def test_an_interval_graph_in_index_order_reaches_the_finish(dense_part, monkeypatch):
    # points 0..N-1 of a line, each conflicting with the two on either
    # side: in index order a round decides only the first three undecided
    # points, so the rounds hand over to the sequential scan.  With a dense
    # random graph on more points ranked between them, the first rounds
    # decide that part before the chain is handed over
    finishes = _count_finishes(monkeypatch)
    N = 400
    k = np.arange(N - 1)
    i = np.concatenate([k, k[:-1]]).astype(np.int32)
    j = np.concatenate([k + 1, k[:-1] + 2]).astype(np.int32)
    M = N
    if dense_part:
        rng = np.random.default_rng(1)
        M = 2 * N
        a, b = _random_graph(rng, N, 40 * N)
        i, j = np.concatenate([i, a + N]), np.concatenate([j, b + N])
        order = np.empty(M, dtype=np.int64)
        order[0::2] = np.arange(N)
        order[1::2] = N + rng.permutation(N)
    else:
        order = np.arange(M)
    got = _kernels._edge_greedy(i, j, order)
    assert got.tolist() == greedy_over(_graph_matrix(M, i, j), order)
    assert got[got < N].tolist() == list(range(0, N, 3))
    assert len(finishes) == 1 and 0 < finishes[0] <= 2 * N - 3


# --- far and near seam lifts ------------------------------------------------


def _check_both_paths(handle, cloud, ns, delta, monkeypatch, reps=None):
    """greedy_thinning equals the brute-force greedy on the join and the
    scan path, over the cloud's rep table unless reps is given."""
    prim = cloud.orbit_table(handle, max(ns))
    if reps is None:
        reps = cloud.rep_table(handle, max(ns))
    wrap = cloud.space.wrap_mask
    orders = [np.arange(len(cloud))] + [
        np.random.default_rng(s).permutation(len(cloud)) for s in range(2)
    ]
    for join_budget in (_kernels.JOIN_PAIRS_PER_NODE, 0):
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", join_budget)
        for n in ns:
            conflict = brute_force_conflicts(prim, reps, wrap, n, delta)
            for order in orders:
                got = _kernels.greedy_thinning(prim, reps, wrap, n, delta, order)
                assert got.tolist() == greedy_over(conflict, order)


def _lift_table(space, orbits):
    """Both seam lifts of every orbit point, read-only: the table
    SampleCloud.rep_table builds when a lift may reach a point."""
    reps = np.stack([space.lift_reps(o)[:, 1:] for o in orbits])
    reps.setflags(write=False)
    return reps


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
def test_far_seam_lifts_on_a_product_box_match_brute_force(time1, delta, monkeypatch):
    # box heights stay within 0.1 of 0.37 under a roof of 1: neither seam
    # lift comes near any point, so only prim is compared with prim.  The
    # cloud's own table holds no lifts (see below); the full one is given
    box = foliation.build_product_box(time1, np.array([0.2, 0.3, 0.37]), 0.05, 8)
    cloud = SampleCloud(time1.space, box.d_samples)
    reps = _lift_table(time1.space, cloud.orbit_table(time1, 4))
    _check_both_paths(time1, cloud, (1, 2, 4), delta, monkeypatch, reps)


def _aligned_pair_cloud(handle, span):
    """300 suspension points with heights filling [0.5 - span/2, 0.5 + span/2],
    plus a pair at the two ends: q sits one sheet up from p, so its
    downward seam lift is 1 - span above p, at every iterate of the
    time-1 map, and no other representative brings them close."""
    rng = np.random.default_rng(4)
    lo, hi = 0.5 - span / 2, 0.5 + span / 2
    pts = np.concatenate([rng.random((300, 2)), rng.uniform(lo, hi, (300, 1))], axis=1)
    base = rng.random(2)
    q_base = handle.suspension.base_map.step_back(base)
    pair = np.array([[*base, lo], [*q_base, hi]])
    return SampleCloud(handle.space, np.concatenate([pts, pair]))


@pytest.mark.parametrize(
    "span, delta", [(0.93, 0.05), (0.93, 0.1), (0.93, 0.2), (0.97, 0.05), (0.97, 0.1), (0.97, 0.2)]
)
def test_lifts_that_can_reach_the_radius_decide_the_pair(time1, span, delta, monkeypatch):
    # the pair is 1 - span apart through the lift: 0.07 at span 0.93,
    # only 0.03 at span 0.97
    cloud = _aligned_pair_cloud(time1, span)
    prim = cloud.orbit_table(time1, 4)
    reps = cloud.rep_table(time1, 4)
    p, q = len(cloud) - 2, len(cloud) - 1
    with_lifts = brute_force_conflicts(prim, reps, cloud.space.wrap_mask, 4, delta)
    identity = brute_force_conflicts(prim, reps[:, :, :0], cloud.space.wrap_mask, 4, delta)
    assert not identity[p, q]
    assert with_lifts[p, q] == (1 - span <= delta)
    _check_both_paths(time1, cloud, (1, 2, 4), delta, monkeypatch)


def test_a_lone_far_lift_leaves_only_prim_compared():
    # the only other representative sits 10 above prim on the unwrapped
    # axis, and the pairs still conflict through prim
    rng = np.random.default_rng(0)
    prim = np.stack([rng.random((200, 2)) for _ in range(3)])
    reps = (prim + np.array([0.0, 10.0]))[:, :, None, :]
    wrap = np.array([True, False])
    order = rng.permutation(200)
    for n in (1, 3):
        got = _kernels.greedy_thinning(prim, reps, wrap, n, 0.2, order)
        assert got.tolist() == brute_force_greedy(prim, reps, wrap, n, 0.2, order)
        assert got.tolist() == brute_force_greedy(prim, reps[:, :, :0], wrap, n, 0.2, order)
        assert 0 < got.size < order.size


def test_a_set_near_at_one_iterate_decides_the_pair():
    # points 0 and 1 are close through prim at iterate 0 and only through
    # the second set at iterate 1; that set is 10 away at iterate 0, and
    # the pair conflicts through different sets at each iterate
    prim = np.array([[[0.1, 0.0], [0.1, 0.01], [0.7, 0.5]], [[0.1, 0.0], [0.6, 0.0], [0.3, 0.5]]])
    shifted = prim + np.array([[[0.0, 10.0]], [[0.5, 0.0]]])
    reps = shifted[:, :, None, :]
    wrap = np.array([True, False])
    order = np.arange(3)
    assert brute_force_greedy(prim, reps, wrap, 2, 0.05, order) == [0, 2]
    assert _kernels.greedy_thinning(prim, reps, wrap, 2, 0.05, order).tolist() == [0, 2]


def test_a_representative_exactly_delta_away_at_a_large_magnitude():
    # at magnitude 2e8 one ulp is 3e-8, far above the absolute radius pad,
    # while point 1's representative is exactly delta from point 0
    S, delta = 2e8, 0.05
    prim = np.array([[[0.0], [S]]])
    reps = np.array([[[-(S + delta)], [-delta]]])[:, :, None, :]
    wrap = np.array([False])
    order = np.arange(2)
    assert brute_force_greedy(prim, reps, wrap, 1, delta, order) == [0]
    assert _kernels.greedy_thinning(prim, reps, wrap, 1, delta, order).tolist() == [0]


def test_the_seam_clouds_get_the_full_lift_table():
    # the lift tests above must keep exercising the seam lifts
    handle, make_cloud = KERNEL_SYSTEMS["suspension_time1"]()
    clouds = [make_cloud(handle, s) for s in range(3)] + [_dense_seam_cloud(handle, 0, 700)]
    for cloud in clouds:
        assert cloud.rep_table(handle, 4).shape == (4, len(cloud), 2, 3)


# --- seam-clear clouds ---------------------------------------------------------


def _diskbox_cloud(handle, kind, scale, samples):
    """The box or disk cloud disk_vs_box_comparison builds at x = (0.2, 0.3, 0.37)."""
    x = np.array([0.2, 0.3, 0.37])
    if kind == "box":
        return SampleCloud(handle.space, foliation.build_product_box(handle, x, scale, samples).d_samples)
    seg = foliation.unstable_segment(handle, x, scale)
    return SampleCloud(handle.space, seg.point_at(np.linspace(0.0, seg.arclength, samples)))


@pytest.mark.parametrize("kind, samples", [("box", 8), ("disk", 300)])
def test_seam_clear_clouds_get_no_lift_table(time1, kind, samples, monkeypatch):
    # box and disk heights stay within 0.05 of 0.37 under a roof of 1, at
    # every iterate of the time-1 map: no lift comes within DELTA_CAP of
    # any point, so the table holds none, and every cell up to DELTA_CAP
    # accepts what the full lift table and the brute-force rule accept
    cloud = _diskbox_cloud(time1, kind, 0.05, samples)
    prim = cloud.orbit_table(time1, 3)
    reps = cloud.rep_table(time1, 3)
    assert reps.shape == (3, len(cloud), 0, 3) and not reps.flags.writeable
    lifted = _lift_table(time1.space, prim)
    wrap = cloud.space.wrap_mask
    orders = [np.arange(len(cloud))] + [
        np.random.default_rng(s).permutation(len(cloud)) for s in range(2)
    ]
    for join_budget in (_kernels.JOIN_PAIRS_PER_NODE, 0):
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", join_budget)
        for delta in (entropy.DELTA_CAP, 0.1, 0.05, 0.025):
            for n in (1, 2, 3):
                conflict = brute_force_conflicts(prim, lifted, wrap, n, delta)
                for order in orders:
                    want = greedy_over(conflict, order)
                    assert _kernels.greedy_thinning(prim, reps, wrap, n, delta, order).tolist() == want
                    assert _kernels.greedy_thinning(prim, lifted, wrap, n, delta, order).tolist() == want


@pytest.mark.parametrize("kind, samples", [("box", 40), ("disk", 2500)])
@pytest.mark.parametrize("scale", [0.05, 0.025])
def test_criterion_5_clouds_get_no_lift_table(time1, kind, samples, scale):
    # the full-size clouds of criterion 5 and of the disk-vs-box benchmark
    cloud = _diskbox_cloud(time1, kind, scale, samples)
    assert cloud.rep_table(time1, 3).shape == (3, len(cloud), 0, 3)


def test_a_cloud_that_reaches_the_seam_later_gets_the_full_table(monkeypatch):
    # heights in [0.35, 0.45] under the time-0.3 map stay clear of the seam
    # at iterates 0 and 1 and straddle it at iterate 2: asked for n = 3
    # after n = 2, the empty table is rebuilt with every iterate lifted,
    # bitwise as a cold cloud lifts it, and the kernel decides every cell
    # by the lifts.
    # The flow is not shared with other tests, as lift_reps is replaced on
    # its space
    flow = systems.SuspensionFlow(systems.ToralMapHandle([[2, 1], [1, 1]]), systems.Roof(1.0))
    handle = systems.TimeTMapHandle(flow, 0.3)
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.random((300, 2)), rng.uniform(0.35, 0.45, (300, 1))], axis=1)
    cold = SampleCloud(handle.space, pts).rep_table(handle, 3)
    grown = SampleCloud(handle.space, pts)
    assert grown.rep_table(handle, 1).shape == (1, 300, 0, 3)
    assert grown.rep_table(handle, 2).shape == (2, 300, 0, 3)
    lifted = []
    lift = handle.space.lift_reps
    monkeypatch.setattr(handle.space, "lift_reps", lambda p: lifted.append(len(p)) or lift(p))
    reps = grown.rep_table(handle, 3)
    assert lifted == [300] * 3
    assert reps.shape == cold.shape == (3, 300, 2, 3)
    assert reps.tobytes() == cold.tobytes()
    assert reps.tobytes() == _lift_table(handle.space, grown.orbit_table(handle, 3)).tobytes()
    # shorter tables are now views of the full one
    assert grown.rep_table(handle, 2).shape == (2, 300, 2, 3)
    prim = grown.orbit_table(handle, 3)
    wrap = grown.space.wrap_mask
    order = np.random.default_rng(1).permutation(300)
    for n in (1, 2, 3):
        want = brute_force_greedy(prim, reps, wrap, n, 0.2, order)
        assert _kernels.greedy_thinning(prim, reps, wrap, n, 0.2, order).tolist() == want
        # the lifts decide nothing before iterate 2, and some pairs there
        without = _kernels.greedy_thinning(prim, reps[:, :, :0], wrap, n, 0.2, order).tolist()
        assert (without == want) == (n < 3)


def test_lifts_clear_keeps_the_rounding_slack(time1):
    # heights spread over [0, s] with 1 - s just above the padded DELTA_CAP:
    # 1e-9 above it is inside the slack (1e-9 times roof_max and twice the
    # largest height), so the lifts stay; 1e-8 above it is clear
    radius = _kernels.padded_radius(entropy.DELTA_CAP)
    rng = np.random.default_rng(2)
    for margin, clear in ((1e-9, False), (1e-8, True)):
        span = 1.0 - radius - margin
        h = np.concatenate([[0.0, span], rng.uniform(0.0, span, 98)])
        pts = np.concatenate([rng.random((100, 2)), h[:, None]], axis=1)
        assert time1.space.lifts_clear(pts, radius) is clear
        cloud = SampleCloud(time1.space, pts)
        assert cloud.rep_table(time1, 1).shape[2] == (0 if clear else 2)


def test_a_variable_roof_is_bounded_by_its_lowest_value(flow_trig):
    # the roof 1 + 0.2 cos(2 pi x1) is 0.8 at x1 = 0.5: q sits 0.01 below it
    # there, its downward lift 0.01 below p at the image base.  The heights
    # spread over 0.79, which clears roof_max = 1.2 by far more than
    # DELTA_CAP but roof_min = 0.8 by less, so the table keeps the lifts
    handle = systems.TimeTMapHandle(flow_trig, 1.0)
    q = np.array([0.5, 0.3, 0.79])
    p = np.concatenate([handle.suspension.base_map.step(q[:2]), [0.0]])
    rng = np.random.default_rng(3)
    others = np.concatenate([rng.random((40, 2)), rng.uniform(0.3, 0.5, (40, 1))], axis=1)
    cloud = SampleCloud(handle.space, np.concatenate([[p, q], others]))
    prim = cloud.orbit_table(handle, 1)
    reps = cloud.rep_table(handle, 1)
    assert reps.shape[2] == 2
    wrap = cloud.space.wrap_mask
    order = np.arange(len(cloud))
    want = brute_force_greedy(prim, _lift_table(handle.space, prim), wrap, 1, 0.05, order)
    assert 1 not in want
    assert brute_force_greedy(prim, reps[:, :, :0], wrap, 1, 0.05, order) != want
    assert _kernels.greedy_thinning(prim, reps, wrap, 1, 0.05, order).tolist() == want


def _all_iterate_boxes(tree):
    """The node boxes of every level with the leaf boxes built for all
    iterates at once, the build _Tree did before it went one iterate at a
    time; the reference for that change."""
    leaf = tree.levels[-1]
    nid = np.repeat(np.arange(leaf.size - 1), np.diff(leaf))
    boxes = []
    for x in tree.sets:
        x = np.take(x, tree.perm, axis=1)
        off = _kernels._offsets(x, leaf, nid, 1, tree.wrap)
        lo = np.minimum.reduceat(off, leaf[:-1], axis=1)
        hi = np.maximum.reduceat(off, leaf[:-1], axis=1)
        boxes.append((x[:, leaf[:-1]] + 0.5 * (lo + hi), 0.5 * (hi - lo)))
    levels = [boxes]
    for _ in range(len(tree.levels) - 1):
        levels.insert(0, [tree._merge(c, h) for c, h in levels[0]])
    return levels


@pytest.mark.parametrize("case", ["cat_map", "suspension_time1", "dense_seam"])
def test_tree_boxes_match_the_all_iterate_build(case):
    if case == "cat_map":
        handle, cloud = CAT, grid_cloud(CAT, 24)
    else:
        handle = KERNEL_SYSTEMS["suspension_time1"]()[0]
        cloud = _seam_cloud(handle, 0) if case == "suspension_time1" else _dense_seam_cloud(handle, 0, 300)
    prim = cloud.orbit_table(handle, 4)
    reps = cloud.rep_table(handle, 4)
    assert reps.shape[2] == (0 if case == "cat_map" else 2)
    wrap = cloud.space.wrap_mask
    tree = _kernels._Tree(_kernels._Order(prim[1], wrap), prim, reps, wrap)
    want = _all_iterate_boxes(tree)
    assert len(tree.boxes) == len(want) == len(tree.levels)
    for got_level, want_level in zip(tree.boxes, want):
        assert len(got_level) == len(want_level) == 1 + reps.shape[2]
        for (gc_, gh), (wc, wh) in zip(got_level, want_level):
            assert gc_.shape == wc.shape and gc_.tobytes() == wc.tobytes()
            assert gh.shape == wh.shape and gh.tobytes() == wh.tobytes()


def _order_chart(coords, wrap):
    """The chart an _Order splits in: coordinates relative to the first
    point, wrapped axes unwound."""
    chart = coords - coords[0]
    chart[:, wrap] -= np.round(chart[:, wrap])
    return chart


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "wrap", [[True, True], [True, True, False]], ids=["torus", "mapping_torus"]
)
@pytest.mark.parametrize("N", [1, 5, 997, 3000])
def test_tree_order_splits_each_node_at_its_median(N, wrap, seed):
    # perm is a permutation; level L has 2^L nodes, each node's children
    # are its two halves (the first has the floor of half its points); the
    # leaves hold at most LEAF_SIZE points, their parents more; and every
    # point of a first child lies at or below every point of the second
    # along the parent's widest axis of the chart
    wrap = np.array(wrap)
    rng = np.random.default_rng(seed)
    coords = rng.random((N, wrap.size))
    # a cluster across the cut of the first wrapped axis
    coords[: N // 4, 0] = rng.uniform(-0.05, 0.05, N // 4) % 1.0
    order = _kernels._Order(coords, wrap)
    assert sorted(order.perm.tolist()) == list(range(N))
    levels = order.levels
    assert levels[0].tolist() == [0, N]
    for L, starts in enumerate(levels):
        assert starts.size == 2**L + 1 and starts[0] == 0 and starts[-1] == N
        if L + 1 < len(levels):
            child = levels[L + 1]
            assert np.array_equal(child[0::2], starts)
            assert np.array_equal(child[1::2], starts[:-1] + np.diff(starts) // 2)
    assert np.diff(levels[-1]).max() <= _kernels.LEAF_SIZE
    if len(levels) > 1:
        assert np.diff(levels[-2]).max() > _kernels.LEAF_SIZE
    chart = _order_chart(coords, wrap)
    for L in range(len(levels) - 1):
        starts, mid = levels[L], levels[L + 1][1::2]
        for k in range(starts.size - 1):
            node = chart[order.perm[starts[k] : starts[k + 1]]]
            axis = np.argmax(node.max(axis=0) - node.min(axis=0))
            first = chart[order.perm[starts[k] : mid[k]], axis]
            second = chart[order.perm[mid[k] : starts[k + 1]], axis]
            assert first.size == 0 or first.max() <= second.min()


# --- the lean box test and conflict rule --------------------------------------
# The references below are the box test and the rule as the kernel computed
# them before they gathered each iterate's rows once: a squared gap summed by
# np.sum over the axes, one gather per component, and a box or point fetched
# per representative set.  The kernel must agree with them bit for bit.


def _ref_gap2(box_a, box_b, wrap):
    """Squared lower bound on the distance between points of two boxes."""
    w = _kernels._unwind(box_a[0] - box_b[0], wrap)
    g = np.maximum(np.abs(w) - box_a[1] - box_b[1], 0.0)
    return np.sum(g * g, axis=1)


def _ref_dist2(x, y, wrap, i, j):
    """|x_i - y_j|^2 at one iterate, wrapped axes mod 1."""
    acc = None
    for c in range(x.shape[1]):
        d = x[i, c] - y[j, c]
        if wrap[c]:
            d -= np.rint(d)
        acc = d * d if acc is None else acc + d * d
    return acc


def _ref_box(tree, L, s, k, idx):
    """Box of set s at iterate k; L=None takes idx as points."""
    if L is None:
        return np.take(tree.sets[s][k], idx, axis=0), 0.0
    c, h = tree.boxes[L][s]
    return np.take(c[k], idx, axis=0), np.take(h[k], idx, axis=0)


def _ref_box_gap2(tree, k, La, a, Lb, b):
    """The symmetrized squared gap between the boxes of (a, b) at iterate k."""
    pa, pb = _ref_box(tree, La, 0, k, a), _ref_box(tree, Lb, 0, k, b)
    best = _ref_gap2(pa, pb, tree.wrap)
    for s in range(1, len(tree.sets)):
        best = np.minimum(best, _ref_gap2(pa, _ref_box(tree, Lb, s, k, b), tree.wrap))
        best = np.minimum(best, _ref_gap2(pb, _ref_box(tree, La, s, k, a), tree.wrap))
    return best


def _ref_close(tree, its, r2, La, ia, Lb, ib):
    live = np.arange(ia.size)
    for k in its:
        live = live[_ref_box_gap2(tree, k, La, ia[live], Lb, ib[live]) <= r2]
    return live


def _ref_pair_dist2(prim, reps, wrap, it, a, b):
    """The symmetrized squared distance of the pairs (a, b) at iterate it."""
    p = prim[it]
    d2 = _ref_dist2(p, p, wrap, a, b)
    for r in range(reps.shape[2]):
        q = reps[it, :, r]
        d2 = np.minimum(d2, np.minimum(_ref_dist2(p, q, wrap, a, b), _ref_dist2(p, q, wrap, b, a)))
    return d2


def _ref_conflicts(prim, reps, wrap, delta2, i, j):
    live = np.arange(i.size)
    for it in range(prim.shape[0] - 1, -1, -1):
        live = live[_ref_pair_dist2(prim, reps, wrap, it, i[live], j[live]) <= delta2]
        if live.size == 0:
            break
    mask = np.zeros(i.size, dtype=bool)
    mask[live] = True
    return mask


def _lean_tables(case):
    """(prim, reps, wrap) at n = 4: the cat-map grid (no other
    representatives) or a seam cloud (two seam lifts)."""
    if case == "cat_map_grid":
        handle, cloud = CAT, grid_cloud(CAT, 24)
    else:
        handle = KERNEL_SYSTEMS["suspension_time1"]()[0]
        cloud = _seam_cloud(handle, int(case[-1])) if case != "dense_seam" else _dense_seam_cloud(handle, 0, 300)
    prim, reps = cloud.orbit_table(handle, 4), cloud.rep_table(handle, 4)
    assert reps.shape[2] == (0 if case == "cat_map_grid" else 2)
    return prim, reps, cloud.space.wrap_mask


def _radii(gaps, extra):
    """Squared radii at which some of gaps sit exactly: the 10th, 50th and
    90th percentile values (each one of gaps itself), and extra."""
    values = np.sort(gaps)
    return [values[int(q * (values.size - 1))] for q in (0.1, 0.5, 0.9)] + list(extra)


LEAN_CASES = ["cat_map_grid", "seam_cloud_0", "seam_cloud_1", "dense_seam"]


@pytest.mark.parametrize("case", LEAN_CASES)
def test_box_test_matches_the_reference_bit_for_bit(case):
    # node against node at every level and point against node, at radii
    # some gaps equal exactly: a gap one unit in the last place off the
    # reference would move a pair across its radius
    prim, reps, wrap = _lean_tables(case)
    tree = _kernels._Tree(_kernels._Order(prim[1], wrap), prim, reps, wrap)
    its = sorted(range(4), key=lambda k: abs(k - 1))
    rng = np.random.default_rng(0)
    N = prim.shape[1]
    for L in range(len(tree.levels)):
        nodes = tree.levels[L].size - 1
        a, b = rng.integers(0, nodes, (2, 2000))
        points = rng.integers(0, N, 2000)
        for La, ia in ((L, a), (None, points)):
            for k in its:
                want = _ref_box_gap2(tree, k, La, ia, L, b)
                boxes_a, boxes_b = tree._gather(La, k, ia), tree._gather(L, k, b)
                got = _kernels._sq_gap(boxes_a[0], boxes_b[0], wrap)
                for s in range(1, len(boxes_a)):
                    got = np.minimum(got, _kernels._sq_gap(boxes_a[0], boxes_b[s], wrap))
                    got = np.minimum(got, _kernels._sq_gap(boxes_b[0], boxes_a[s], wrap))
                assert got.tobytes() == want.tobytes()
            at_split = _ref_box_gap2(tree, 1, La, ia, L, b)
            for r2 in _radii(at_split, [_kernels.padded_radius(0.1) ** 2]):
                got = tree._close(its, r2, La, ia, L, b)
                assert got.tolist() == _ref_close(tree, its, r2, La, ia, L, b).tolist()


@pytest.mark.parametrize("case", LEAN_CASES)
def test_conflict_rule_matches_the_reference_bit_for_bit(case):
    # the pair's largest squared distance over the iterates, taken as the
    # radius, puts that pair exactly delta apart at one iterate and within
    # it at the others: it must conflict, and so must every pair with the
    # same distances
    prim, reps, wrap = _lean_tables(case)
    rng = np.random.default_rng(1)
    i, j = rng.integers(0, prim.shape[1], (2, 20000))
    worst = np.max([_ref_pair_dist2(prim, reps, wrap, it, i, j) for it in range(4)], axis=0)
    for delta2 in _radii(worst, [0.05**2, 0.1**2, 0.2**2]):
        want = _ref_conflicts(prim, reps, wrap, delta2, i, j)
        assert want[worst == delta2].all()
        assert _kernels._conflicts(prim, reps, wrap, delta2, i, j).tolist() == want.tolist()
        for n in (1, 2):
            got = _kernels._conflicts(prim[:n], reps[:n], wrap, delta2, i, j)
            assert got.tolist() == _ref_conflicts(prim[:n], reps[:n], wrap, delta2, i, j).tolist()


@pytest.mark.parametrize(
    "order",
    [
        np.concatenate([np.arange(5), np.arange(50)]),
        np.arange(40),
        np.concatenate([np.arange(49), [50]]),
        np.concatenate([[-1], np.arange(1, 50)]),
    ],
    ids=["repeated", "short", "out_of_range", "negative"],
)
def test_greedy_thinning_rejects_an_order_that_is_not_a_permutation(order):
    # a repeated prefix used to accept points a second time, a short order
    # raised IndexError inside the graph greedy
    handle = systems.circle_doubling()
    cloud = random_cloud(handle, 50, 0)
    prim = cloud.orbit_table(handle, 2)
    reps = cloud.rep_table(handle, 2)
    with pytest.raises(ValueError, match="permutation"):
        _kernels.greedy_thinning(prim, reps, cloud.space.wrap_mask, 2, 0.05, order)


@pytest.mark.parametrize("n", [2.5, True, "2", None], ids=["fraction", "bool", "string", "none"])
def test_a_step_count_that_is_not_whole_is_rejected(n):
    # 2.5 used to die slicing the tables (max_separated, min_spanning_greedy)
    # or building the orbits (dn_distance), or run as n = 2 (the kernel);
    # True ran as n = 1
    cloud = random_cloud(CAT, 60, 0)
    with pytest.raises(ValueError, match="n must be a whole number"):
        dn_distance(CAT, cloud.points[0], cloud.points[1], n)
    with pytest.raises(ValueError, match="n must be a whole number"):
        max_separated(CAT, cloud, n, 0.1)
    with pytest.raises(ValueError, match="n must be a whole number"):
        min_spanning_greedy(CAT, cloud, n, 0.1)
    prim = cloud.orbit_table(CAT, 3)
    reps = cloud.rep_table(CAT, 3)
    with pytest.raises(ValueError, match="n must be an integer"):
        _kernels.greedy_thinning(prim, reps, cloud.space.wrap_mask, n, 0.1, np.arange(len(cloud)))


def test_a_whole_step_count_of_any_type_gives_the_int_result():
    # a whole float passes the estimator's check as systems._whole takes it;
    # the kernel takes numpy integers
    cloud = random_cloud(CAT, 60, 0)
    want = max_separated(CAT, cloud, 2, 0.1, order_seed=1)
    got = max_separated(CAT, cloud, 2.0, 0.1, order_seed=1)
    assert got.n == 2 and got.indices.tolist() == want.indices.tolist()
    assert min_spanning_greedy(CAT, cloud, np.int64(2), 0.1) == min_spanning_greedy(CAT, cloud, 2, 0.1)
    prim = cloud.orbit_table(CAT, 2)
    reps = cloud.rep_table(CAT, 2)
    order = np.random.default_rng(1).permutation(len(cloud))
    got = _kernels.greedy_thinning(prim, reps, cloud.space.wrap_mask, np.int32(2), 0.1, order)
    assert got.tolist() == want.indices.tolist()


@pytest.mark.parametrize("wrap", [[True, True], [True, True, False]], ids=["torus", "mapping_torus"])
def test_greedy_thinning_on_an_empty_table_accepts_nothing(wrap):
    # an empty cloud used to raise inside numpy: IndexError on the torus,
    # a zero-size reduction ValueError on the mapping torus
    C, R = len(wrap), 0 if all(wrap) else 2
    prim, reps = np.zeros((2, 0, C)), np.zeros((2, 0, R, C))
    for order in (np.zeros(0, dtype=np.int64), []):
        got = _kernels.greedy_thinning(prim, reps, np.array(wrap), 2, 0.1, order)
        assert got.dtype == np.int64 and got.shape == (0,)


# --- tree order reuse --------------------------------------------------------


def _count_orders(monkeypatch):
    """Record the coordinates of every tree order the kernel builds."""
    built = []
    build = _kernels._Order

    def counted(coords, wrap):
        built.append(np.array(coords))
        return build(coords, wrap)

    monkeypatch.setattr(_kernels, "_Order", counted)
    monkeypatch.setattr(_kernels, "_kept", None)
    return built


@pytest.mark.parametrize("name", ["cat_map", "suspension_time1"])
@pytest.mark.parametrize("path", ["join", "scan"])
def test_tree_order_is_built_once_per_split_iterate(name, path, monkeypatch):
    # n = 1 and 2 split at iterate 0, n = 3 and 4 at iterate 1: a column
    # of n = 1..4 on one cloud builds two orders (four for two columns),
    # and reusing them leaves every accepted sequence as the brute-force
    # greedy has it
    if path == "scan":
        monkeypatch.setattr(_kernels, "JOIN_PAIRS_PER_NODE", 0)
    handle, make_cloud = KERNEL_SYSTEMS[name]()
    cloud = make_cloud(handle, 0)
    # the tables at n = 4, as entropy_estimate warms them; a table built
    # later at a larger n is a new array and gets its own order
    cloud.rep_table(handle, 4)
    built = _count_orders(monkeypatch)
    # no conflict graph is carried to a later n: every cell goes through the tree
    _no_carry(monkeypatch)
    for delta in (0.1, 0.05):
        for n in (1, 2, 3, 4):
            got = max_separated(handle, cloud, n, delta, order_seed=3)
            prim = cloud.orbit_table(handle, n)
            reps = cloud.rep_table(handle, n)
            order = np.random.default_rng(3).permutation(len(cloud))
            assert got.indices.tolist() == brute_force_greedy(
                prim, reps, cloud.space.wrap_mask, n, delta, order
            )
    prim = cloud.orbit_table(handle, 4)
    assert len(built) == 4
    for coords, it in zip(built, (0, 1, 0, 1)):
        assert np.array_equal(coords, prim[it])


def test_a_writable_table_gets_a_new_order_every_call(monkeypatch):
    # the same array, mutated in place between two calls: its address and
    # shape are unchanged, only its contents differ
    cloud = random_cloud(CAT, 300, 0)
    prim = np.array(cloud.orbit_table(CAT, 2))
    reps = _no_reps(prim)
    wrap = cloud.space.wrap_mask
    order = np.arange(len(cloud))
    built = _count_orders(monkeypatch)
    _kernels.greedy_thinning(prim, reps, wrap, 2, 0.1, order)
    prim[:] = np.random.default_rng(5).random(prim.shape)
    got = _kernels.greedy_thinning(prim, reps, wrap, 2, 0.1, order)
    assert len(built) == 2
    assert np.array_equal(built[1], prim[0])
    assert got.tolist() == brute_force_greedy(prim, reps, wrap, 2, 0.1, order)


def test_a_dead_table_never_matches_a_new_one(monkeypatch):
    # tables of one shape, each freed before the next is made, so a new one
    # may sit where the last one was; the kept order must not outlive it
    wrap = CAT.space.wrap_mask
    order = np.arange(300)
    built = _count_orders(monkeypatch)
    for seed in range(3):
        prim = np.random.default_rng(seed).random((1, 300, 2))
        prim.setflags(write=False)
        reps = _no_reps(prim)
        got = _kernels.greedy_thinning(prim, reps, wrap, 1, 0.1, order)
        assert got.tolist() == brute_force_greedy(prim, reps, wrap, 1, 0.1, order)
        assert _kernels._kept.owners[0]() is prim
        del prim, reps
        gc.collect()
        assert _kernels._kept.owners[0]() is None
    assert len(built) == 3


def test_one_state_is_kept_per_table_pair(monkeypatch):
    # calls on one read-only pair share one state; a call on another pair
    # drops it before its tree order is built, a new split iterate drops
    # the old order first, and a writable table keeps no state at all
    tables = []
    for seed in (0, 1):
        prim = np.random.default_rng(seed).random((4, 300, 2))
        prim.setflags(write=False)
        tables.append((prim, _no_reps(prim)))
    wrap = CAT.space.wrap_mask
    order = np.arange(300)
    monkeypatch.setattr(_kernels, "_kept", None)
    # for every order built: whether each watched object was already gone
    watched, dropped = [], []
    build = _kernels._Order

    def checked(coords, wrap):
        dropped.append([ref() is None for ref in watched])
        return build(coords, wrap)

    monkeypatch.setattr(_kernels, "_Order", checked)
    _kernels.greedy_thinning(*tables[0], wrap, 1, 0.05, order)
    state = _kernels._kept
    assert [r() for r in state.owners] == [tables[0][0], tables[0][1]]
    assert state.order[0] == 0 and state.graph[:2] == (0.05, 1)
    _kernels.greedy_thinning(*tables[0], wrap, 2, 0.05, order)
    assert _kernels._kept is state and state.graph[:2] == (0.05, 2)
    # a new split iterate: the order of iterate 0 is gone before iterate 1's is built
    watched = [weakref.ref(state.order[1])]
    state.graph = None
    _kernels.greedy_thinning(*tables[0], wrap, 3, 0.05, order)
    assert _kernels._kept is state and state.order[0] == 1
    watched = [weakref.ref(state), weakref.ref(state.order[1])]
    del state
    _kernels.greedy_thinning(*tables[1], wrap, 1, 0.05, order)
    assert _kernels._kept.owners[0]() is tables[1][0]
    assert dropped == [[], [True], [True, True]]
    writable = np.array(tables[1][0])
    got = _kernels.greedy_thinning(writable, tables[1][1], wrap, 1, 0.05, order)
    assert _kernels._kept is None
    assert got.tolist() == brute_force_greedy(writable, tables[1][1], wrap, 1, 0.05, order)


# --- conflict graphs carried to later n --------------------------------------


def _count_joins(monkeypatch):
    """Record (n, whether it listed the graph) for every self-join the
    kernel runs; no graph is kept to begin with."""
    joins = []
    self_join = _kernels._self_join

    def counted(tree, its, r2):
        leaves = self_join(tree, its, r2)
        joins.append((len(its), leaves is not None))
        return leaves

    monkeypatch.setattr(_kernels, "_self_join", counted)
    monkeypatch.setattr(_kernels, "_kept", None)
    return joins


def _independent_tables(shifted):
    """Read-only tables of 300 points per iterate in a corner of the torus,
    drawn afresh at every iterate, so a pair can pass the rule at a late
    iterate and fail at an earlier one.  shifted gives each point another
    representative, 0.3 up on the unwrapped axis: a pair is then close
    through it in one direction only."""
    rng = np.random.default_rng(11)
    prim = np.stack([0.3 * rng.random((300, 2)) for _ in range(8)])
    prim.setflags(write=False)
    wrap = np.array([True, not shifted])
    if not shifted:
        return prim, _no_reps(prim), wrap
    reps = np.array((prim + np.array([0.0, 0.3]))[:, :, None, :])
    reps.setflags(write=False)
    return prim, reps, wrap


def _carry_tables(case):
    if case == "independent":
        return _independent_tables(False)
    if case == "independent_shifted":
        return _independent_tables(True)
    handle = KERNEL_SYSTEMS[case]()[0]
    cloud = grid_cloud(handle, 24) if case == "cat_map" else _dense_seam_cloud(handle, 1, 300)
    return cloud.orbit_table(handle, 8), cloud.rep_table(handle, 8), cloud.space.wrap_mask


CARRY_CASES = ["cat_map", "suspension_time1", "independent", "independent_shifted"]


@pytest.mark.parametrize("case", CARRY_CASES)
def test_carried_graph_matches_brute_force_across_gaps(case, monkeypatch):
    # n = 3 -> 5 and 5 -> 8 skip iterates: the kept graph must be filtered
    # at every iterate in between.  The cat map and the independent tables
    # filter prim against prim alone, the seam cloud keeps its lifts and the
    # shifted tables their other representative, so both also filter
    # through those, in both directions
    prim, reps, wrap = _carry_tables(case)
    joins = _count_joins(monkeypatch)
    if case == "suspension_time1":
        assert reps.shape[2] == 2
    for delta in (0.1, 0.05):
        for n in (1, 2, 3, 5, 8):
            conflict = brute_force_conflicts(prim, reps, wrap, n, delta)
            for seed in range(2):
                order = np.random.default_rng(seed).permutation(prim.shape[1])
                got = _kernels.greedy_thinning(prim, reps, wrap, n, delta, order)
                assert got.tolist() == greedy_over(conflict, order)
    # a column lists its graph once, at the first n whose graph fits the
    # join, and carries it across both gaps to n = 8
    listed = [n for n, ok in joins if ok]
    assert len(listed) <= 2 and min(listed) <= 3
    assert _kernels._kept.graph[1] == 8


@pytest.mark.parametrize("case", CARRY_CASES)
def test_interleaved_delta_columns_do_not_share_a_graph(case, monkeypatch):
    # each call replaces the kept graph with one at another delta: nothing
    # is carried, and every cell lists its own graph
    prim, reps, wrap = _carry_tables(case)
    joins = _count_joins(monkeypatch)
    order = np.random.default_rng(3).permutation(prim.shape[1])
    cells = [(n, delta) for n in (1, 2, 3, 5) for delta in (0.1, 0.05)]
    for n, delta in cells:
        got = _kernels.greedy_thinning(prim, reps, wrap, n, delta, order)
        assert got.tolist() == brute_force_greedy(prim, reps, wrap, n, delta, order)
    assert len(joins) == len(cells)


def test_a_writable_table_carries_no_graph(monkeypatch):
    # the same array, mutated in place between n = 1 and n = 2
    prim, reps, wrap = _independent_tables(False)
    prim = np.array(prim)
    order = np.arange(prim.shape[1])
    joins = _count_joins(monkeypatch)
    _kernels.greedy_thinning(prim, reps, wrap, 1, 0.05, order)
    assert _kernels._kept is None
    before = brute_force_conflicts(prim, reps, wrap, 1, 0.05)
    prim[:] = 0.3 * np.random.default_rng(5).random(prim.shape)
    got = _kernels.greedy_thinning(prim, reps, wrap, 2, 0.05, order)
    assert _kernels._kept is None
    assert joins == [(1, True), (2, True)]
    want = brute_force_greedy(prim, reps, wrap, 2, 0.05, order)
    assert got.tolist() == want
    # what the graph of the table before the write, carried, would accept
    carried = before & brute_force_conflicts(prim[1:], reps[1:], wrap, 1, 0.05)
    assert greedy_over(carried, order) != want


def test_a_graph_is_not_carried_to_another_reps_table(monkeypatch):
    # one read-only prim with two read-only reps tables: no lifts at n = 1,
    # then the seam lifts at n = 2; the graph of the first misses the pairs
    # only a lift brings close
    handle, make_cloud = KERNEL_SYSTEMS["suspension_time1"]()
    cloud = make_cloud(handle, 0)
    prim = cloud.orbit_table(handle, 2)
    lifted = cloud.rep_table(handle, 2)
    identity = _no_reps(prim)
    wrap = cloud.space.wrap_mask
    order = np.arange(len(cloud))
    joins = _count_joins(monkeypatch)
    _kernels.greedy_thinning(prim, identity, wrap, 1, 0.1, order)
    got = _kernels.greedy_thinning(prim, lifted, wrap, 2, 0.1, order)
    assert joins == [(1, True), (2, True)]
    want = brute_force_greedy(prim, lifted, wrap, 2, 0.1, order)
    assert got.tolist() == want
    # what a graph carried from the identity table would accept
    carried = brute_force_conflicts(prim, identity, wrap, 1, 0.1) & brute_force_conflicts(
        prim[1:], lifted[1:], wrap, 1, 0.1
    )
    assert greedy_over(carried, order) != want



def test_a_dead_reps_table_never_matches_a_new_one(monkeypatch):
    # one prim, and reps tables of one shape, each freed before the next is
    # made, so a new one may sit where the last one was; the kept graph
    # must not outlive it
    prim, _, wrap = _independent_tables(True)
    order = np.arange(prim.shape[1])
    joins = _count_joins(monkeypatch)
    for seed in range(3):
        reps = np.array((prim + np.array([0.0, 0.25 + 0.05 * seed]))[:, :, None, :])
        reps.setflags(write=False)
        got = _kernels.greedy_thinning(prim, reps, wrap, 1, 0.05, order)
        assert got.tolist() == brute_force_greedy(prim, reps, wrap, 1, 0.05, order)
        assert _kernels._kept.owners[1]() is reps
        del reps
        gc.collect()
        assert _kernels._kept.owners[1]() is None
    assert joins == [(1, True)] * 3
