"""Greedy thinning over Bowen metrics.

The core operation: scan cloud points in a given order; accept a point iff
its d_n distance to every previously accepted point exceeds delta.

Distances are evaluated on precomputed orbit representative tables:
  prim: (n, N, C) primary chart coordinates per iterate,
  reps: (n, N, R, C) the other representatives of each point (R=0 on the
        torus; on a mapping torus R=2, one lift through each seam side,
        except that SampleCloud.rep_table gives R=0 when no lift comes
        within its largest radius of any point at any iterate: a pair
        then conflicts exactly as it does through prim alone).
A point is always its own representative.  The pair distance is
symmetrized: a pair (i, j) conflicts at (n, delta) when, at every iterate
below n, the least of |prim_i - prim_j|^2, min_r |prim_i - reps_j,r|^2 and
min_r |prim_j - reps_i,r|^2 is <= delta^2, with wrapped axes taken mod 1
(d - round(d)).

Candidates come from a tree over the cloud, split along the chart
coordinates of the middle iterate.  Every node keeps a bounding box per
iterate and per representative, and a pair of nodes is dropped as soon as
one iterate puts their boxes more than delta apart.  Near the split
iterate the boxes stay small even where late iterates have spread a node
around the torus, so most separated pairs are dropped well above the
leaves.  The boxes are built from prim and reps on every call, so the
point order of the tree decides only which points share a node, never
which pairs conflict.  That is why one chart serves a whole order: the
split iterate is unwound once, relative to its first point, and a node
that straddles that chart's cut is split as if it spanned the circle
there; its boxes are still built from its own points, so they bound them
and the candidates stay a superset of the conflicting pairs.

The search radius is padded (RADIUS_PAD), which makes the candidates a
superset of the conflicting pairs; the rule above then decides each
candidate with exactly the arithmetic stated.

One routine (_near) decides every pair the kernel tests: node against
node in the self-join, point against node in the scan's queries, and
point against point for the join's edges, the scan's blocks and
candidates, and carried graphs.  A point is a box with no half-width, so
the box test run on points at delta is the rule, iterate by iterate.

When the conflict graph is small (points mostly separated) one self-join
of the tree lists all of it, and the ordered greedy runs over that graph
in rounds (_edge_greedy; Blelloch, Fineman and Shun, SPAA 2012).  A round
accepts every undecided point with no undecided neighbour earlier in the
order, then rejects the later neighbours of the points it accepted.  By
induction over the rounds each decision is the sequential scan's: a point
is accepted only once all its earlier neighbours are decided, and none of
them was accepted (an accepted point rejects its undecided later
neighbours in its own round); a point is rejected only when an earlier
neighbour was accepted.  A random order is decided in a few rounds.  An
order that is a chain in the graph, such as index order on points sorted
in space, decides few points per round, so once a round removes less
than half of the remaining edges, the rest is scanned point by point.

Otherwise the self-join gives up at some level L, but the node pairs of
level L - 1 are complete: every point within the radius of a point p lies
under a level-(L - 1) partner of p's node (_Partners).  The order is then
scanned in blocks of points still alive: the same greedy in rounds first
resolves a block over its own pairwise conflicts, then only the points it
accepted are searched in the tree, starting from their nodes' partners
instead of the root, and every alive point one of them conflicts with is
removed.  That costs about the number of accepted points times the ball
size, in few tree descents.  A query descends only into live subtrees:
once per block, after the block's own points are marked dead, the scan
counts the alive points under every node (one reduceat over the tree
order at the deepest level queried, each level above as the sums of its
children), and a query drops every node counted empty before it tests
the node's box.  Points die and never revive, so counts taken before the
block's queries can only over-count: a dropped node holds only dead
points, which the scan discards anyway.  A query ends QUERY_STOP levels
above the leaves, at nodes of about 4 * LEAF_SIZE points (or at the
partner level, if that is deeper), and every point of the nodes it
reaches is a candidate: the two deepest levels of box tests cost more
than the rule on the extra candidates.  The self-join keeps its
LEAF_SIZE-point leaves, because its leaf pairs expand to the square of
the leaf size.  Both paths give the accepted sequence the scan defines:
the tree, the counts, the blocks and the rounds only choose which pairs
are checked and when, the rule above decides each of them.

A listed conflict graph is carried to later n of its delta column.  A
pair conflicts at n' > n exactly when it conflicts at n and, at every
iterate n..n'-1, passes the rule's test for that iterate: the rule is a
conjunction over iterates (d_n' >= d_n).  So the graph at n', filtered at
those iterates by the same arithmetic (the rule at iterates n'-1 down to
n), is the graph a self-join at n' would list, and the ordered greedy over
it accepts the same sequence.

Between calls the kernel keeps one state (_Kept) for one pair of
read-only tables: the last tree order, by split iterate (n = 1 and 2
split at iterate 0, n = 3 and 4 at iterate 1, ...), and the last listed
conflict graph, by (delta, n).  It is found again when a call reads the
same bytes of the same prim and reps, whose owning arrays are read-only
(SampleCloud marks its cached tables so) and held by weak references, so
a table that is gone never matches a new one.  A call on other tables
drops the state before anything new is built, so at most one order and
one graph are alive, and a writable table keeps none.  Its key leaves
out the number of iterates, so views of one table at any n share it;
callers that want it kept build their tables at the largest n first (as
entropy_estimate does).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

#: points per leaf of the search tree
LEAF_SIZE = 4
#: a self-join gives up when a tree level holds more node pairs than this
#: many per node (counting at least 64 nodes); the scan takes over
JOIN_PAIRS_PER_NODE = 16
#: candidate pairs handled per numpy pass; bounds the working memory
CHUNK_PAIRS = 1 << 15
#: alive points the scan resolves together, by their pairwise conflicts
SCAN_BLOCK = 64
#: scan queries end this many levels above the leaves, at nodes of about
#: 4 * LEAF_SIZE points (or at the partner level, if that is deeper)
QUERY_STOP = 2
#: accepted points searched by the scan's first tree descent; later groups
#: resize to keep their candidate lists near CHUNK_PAIRS, up to SCAN_BLOCK
QUERY_GROUP = 16
#: padding of the search radius over delta, relative and absolute; far
#: above the rounding of the box arithmetic on chart coordinates
RADIUS_PAD = (1e-9, 1e-12)


class _Order:
    """The point order of a balanced binary tree over one iterate.

    Level L holds 2^L nodes; node k of level L covers the points
    perm[levels[L][k]:levels[L][k + 1]] and has children 2k and 2k + 1.
    Nodes are split at their median along their widest axis, all nodes of
    a level by one sort.  The widths and medians are read in one chart: the
    coordinates unwound once, relative to the first point, held by columns
    and shifted to start at 0 on every axis.  The sort key of a point is
    its coordinate along its node's widest axis plus the node's offset,
    the node index times a power of two above twice the chart's widest
    span, so the nodes come out in order, each sorted along its axis (up
    to ties: the sum may round two near coordinates to one key).  A node may
    straddle that chart's cut on a wrapped axis, and then looks as wide as
    the circle there, so it may be split along another axis than in a chart
    of its own.  That changes only which points share a node: _Tree builds
    every box from each node's own points, so the boxes still bound them
    and the candidates stay a superset of the conflicting pairs.
    """

    def __init__(self, coords, wrap):
        N, C = coords.shape
        # the chart by columns, (C, N): the reductions and the reordering
        # below run on contiguous rows of one coordinate each
        chart = np.empty((C, N))
        np.subtract(coords.T, coords[0][:, None], out=chart)
        for c in np.flatnonzero(wrap):
            chart[c] -= np.rint(chart[c])
        chart -= chart.min(axis=1, keepdims=True)
        # node k's keys lie in [k * gap, k * gap + span], exact offsets
        gap = 2.0 ** (math.frexp(float(chart.max(initial=0.0)))[1] + 1)
        perm, cols = np.arange(N), np.arange(N)
        starts = np.array([0, N], dtype=np.int64)
        self.levels = [starts]
        while -(-N // (starts.size - 1)) > LEAF_SIZE:
            sizes = np.diff(starts)
            lo = np.minimum.reduceat(chart, starts[:-1], axis=1)
            hi = np.maximum.reduceat(chart, starts[:-1], axis=1)
            widest = np.argmax(hi - lo, axis=0)
            key = np.take(chart, np.repeat(widest * N, sizes) + cols)
            key += np.repeat(np.arange(sizes.size) * gap, sizes)
            sort = np.argsort(key)
            perm, chart = np.take(perm, sort), np.take(chart, sort, axis=1)
            split = np.empty(2 * sizes.size + 1, dtype=np.int64)
            split[0::2] = starts
            split[1::2] = starts[:-1] + sizes // 2
            starts = split
            self.levels.append(starts)
        self.perm = perm


class _Kept:
    """What the kernel keeps for one pair of read-only tables.

    order is (split iterate, _Order) of the last tree order built, graph
    (delta, n, i, j) of the last conflict graph listed; owners holds weak
    references to the owning arrays of prim and reps.
    """

    def __init__(self, key, owners=()):
        self.key, self.owners = key, [weakref.ref(o) for o in owners]
        self.order = self.graph = None

    def tree_order(self, prim, wrap, split_it):
        """The _Order over prim[split_it], built unless it is the last one."""
        if self.order is None or self.order[0] != split_it:
            self.order = None
            self.order = (split_it, _Order(prim[split_it], wrap))
        return self.order[1]

    def take_graph(self, delta, n):
        """Drop the kept graph; (n0, i, j) of it if it was listed at delta
        and some n0 <= n, else None."""
        graph, self.graph = self.graph, None
        if graph is None or graph[0] != delta or graph[1] > n:
            return None
        return graph[1:]


#: the _Kept of the last pair of read-only tables; see _kept_state
_kept = None


def _frozen_owner(a):
    """The array that owns a's memory when it owns its data and is
    read-only, else None: only then can the bytes a views not change."""
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return owner if owner.base is None and not owner.flags.writeable else None


def _layout(a):
    """Address, shape and strides of a view."""
    return a.__array_interface__["data"][0], a.shape, a.strides


def _kept_state(prim, reps, wrap):
    """The state kept for these tables, else a new one, kept only when both
    are read-only; the state of any other tables is dropped first."""
    global _kept
    last, _kept = _kept, None
    owners = (_frozen_owner(prim), _frozen_owner(reps))
    # the layouts leave out the number of iterates: what n kept serves n' > n
    key = tuple((_layout(a[0]), a.strides[0]) for a in (prim, reps)) + (wrap.tobytes(),)
    if any(o is None for o in owners):
        return _Kept(key)
    if last is None or last.key != key or any(r() is not o for r, o in zip(last.owners, owners)):
        last = _Kept(key, owners)
    _kept = last
    return last


def _offsets(x, starts, nid, axis, wrap):
    """Coordinates relative to the first point of their node, wrapped."""
    ref = np.take(x, starts[:-1], axis=axis)
    return _unwind(x - np.take(ref, nid, axis=axis), wrap)


def _unwind(d, wrap):
    """d - round(d) on the wrapped axes (the last axis of d), in place."""
    if wrap.all():
        d -= np.rint(d)
        return d
    for c in np.flatnonzero(wrap):
        col = d[..., c]
        col -= np.round(col)
    return d


class _Tree:
    """An _Order with per-iterate node boxes.

    points holds the point sets as _near takes them, one (table, None) per
    representative, prim first; boxes[L][s] = (centre, half), each (n,
    nodes, C), bounds set s of every node of level L at every iterate.  On
    a wrapped axis a box is an arc of the circle, at most the whole circle.
    """

    def __init__(self, order, points, wrap):
        self.wrap = wrap
        self.perm, self.levels = order.perm, order.levels
        self.points = points
        #: (level, a, b): node pairs (a <= b) of one level, among them every
        #: pair whose boxes come within the radius; the root with itself
        #: until _self_join lists deeper levels
        root = np.zeros(1, dtype=np.int64)
        self.pairs = (0, root, root)
        leaf = self.levels[-1]
        nid = np.repeat(np.arange(leaf.size - 1), np.diff(leaf))
        prim = points[0][0]
        shape = (prim.shape[0], leaf.size - 1, prim.shape[2])
        boxes = []
        for x, _ in points:
            # one iterate at a time, the same arithmetic on an (N, C)
            # working set rather than (n, N, C) temporaries
            c, h = np.empty(shape), np.empty(shape)
            for k in range(shape[0]):
                xk = np.take(x[k], self.perm, axis=0)
                off = _offsets(xk, leaf, nid, 0, wrap)
                lo = np.minimum.reduceat(off, leaf[:-1], axis=0)
                hi = np.maximum.reduceat(off, leaf[:-1], axis=0)
                c[k] = xk[leaf[:-1]] + 0.5 * (lo + hi)
                h[k] = 0.5 * (hi - lo)
            boxes.append((c, h))
        self.boxes = [boxes]
        for _ in range(len(self.levels) - 1):
            self.boxes.insert(0, [self._merge(c, h) for c, h in self.boxes[0]])

    def _merge(self, c, h):
        """Boxes of the parent level: each covers its two children's boxes."""
        c0, h0 = c[:, 0::2], h[:, 0::2]
        w = _unwind(c[:, 1::2] - c0, self.wrap)
        lo = np.minimum(-h0, w - h[:, 1::2])
        hi = np.maximum(h0, w + h[:, 1::2])
        half = 0.5 * (hi - lo)
        for a in np.flatnonzero(self.wrap):
            np.minimum(half[..., a], 0.5, out=half[..., a])
        return c0 + 0.5 * (lo + hi), half

    def close(self, its, r2, La, ia, Lb, ib):
        """Positions of the pairs (ia, ib) whose boxes may hold a conflict:
        the nodes of levels La and Lb (La=None takes ia as points) whose
        boxes come within sqrt(r2) at every iterate of its (_near)."""
        sets_a, sets_b = (self.points if La is None else self.boxes[La]), self.boxes[Lb]
        chunks = zip(range(0, ia.size, CHUNK_PAIRS), _chunks(ia, ib, CHUNK_PAIRS))
        parts = [s + _near(its, r2, self.wrap, sets_a, a, sets_b, b) for s, (a, b) in chunks]
        return np.concatenate([np.zeros(0, dtype=np.int64)] + parts)

    def node_points(self, level, nodes):
        """(row, point) for every point of every listed node of level."""
        starts = self.levels[level]
        sizes = starts[nodes + 1] - starts[nodes]
        row = np.repeat(np.arange(nodes.size), sizes)
        first = np.cumsum(sizes) - sizes
        return row, self.perm[starts[nodes][row] + np.arange(row.size) - first[row]]

    def alive_counts(self, alive, deepest):
        """The number of alive points under every node of levels 0..deepest,
        by level: level deepest by one reduceat over the tree order, each
        level above as the sums of its children."""
        starts = self.levels[deepest]
        counts = [np.add.reduceat(alive[self.perm].astype(np.int32), starts[:-1])]
        for _ in range(deepest):
            counts.insert(0, counts[0][0::2] + counts[0][1::2])
        return counts


def _sq_gap(box_a, box_b, wrap):
    """Squared lower bound on the distance between the points of two boxes,
    each (centre, half) by rows: |unwind(ca - cb)| - ha - hb, clipped at 0,
    squared and summed over the axes in order.  A box with half None is a
    point, and two points give their squared distance."""
    (ca, ha), (cb, hb) = box_a, box_b
    g = _unwind(ca - cb, wrap)
    if ha is not None or hb is not None:
        np.abs(g, out=g)
        for h in (ha, hb):
            if h is not None:
                g -= h
        np.maximum(g, 0.0, out=g)
    np.square(g, out=g)
    acc = g[:, 0].copy()
    for c in range(1, g.shape[1]):
        acc += g[:, c]
    return acc


def _near(its, r2, wrap, sets_a, a, sets_b, b):
    """Positions of the pairs (a, b) within sqrt(r2) at every iterate of its.

    A set is one (centre, half) per representative, prim first, each
    indexed (iterate, row, axis); half None marks points, so the same test
    takes nodes against nodes, points against nodes and points against
    points.  At each iterate a pair's gap is the least _sq_gap of prim
    against prim, prim of a against each other representative of b and
    prim of b against each of a.  prim is compared one way, as both
    directions are bitwise equal (d - rint(d) is odd in d).  The order of
    its decides only how early a pair drops, and the test stops as soon as
    no pair is left, so callers put first the iterates that drop most: the
    rule the latest, which are the most expanded, and the box test those
    nearest the split iterate, where the boxes are smallest.
    """
    live = np.arange(a.size)
    for k in its:
        if live.size == 0:
            break
        rows_a, rows_b = (
            [(np.take(c[k], x, axis=0), None if h is None else np.take(h[k], x, axis=0)) for c, h in sets]
            for sets, x in ((sets_a, a), (sets_b, b))
        )
        best = _sq_gap(rows_a[0], rows_b[0], wrap)
        for s in range(1, len(rows_a)):
            np.minimum(best, _sq_gap(rows_a[0], rows_b[s], wrap), out=best)
            np.minimum(best, _sq_gap(rows_b[0], rows_a[s], wrap), out=best)
        keep = np.flatnonzero(best <= r2)
        a, b, live = np.take(a, keep), np.take(b, keep), np.take(live, keep)
    return live


def _self_join(tree, its, r2):
    """Leaf pairs (a <= b) whose boxes are within the radius at every iterate.

    Returns None as soon as a level holds more than JOIN_PAIRS_PER_NODE
    pairs per node: the conflict graph is then too large to list.  The
    last level listed in full stays on the tree as tree.pairs.
    """
    pa, pb = tree.pairs[1:]
    step = CHUNK_PAIRS // 4
    for L in range(1, len(tree.levels)):
        tree.pairs = (L - 1, pa, pb)
        limit = JOIN_PAIRS_PER_NODE * max(tree.levels[L].size - 1, 64)
        kept_a, kept_b, total = [], [], 0
        for a, b in _chunks(pa, pb, step):
            ca, cb = _child_pairs(a, b)
            keep = tree.close(its, r2, L, ca, L, cb)
            kept_a.append(ca[keep])
            kept_b.append(cb[keep])
            total += keep.size
            if total > limit:
                return None
        pa, pb = np.concatenate(kept_a), np.concatenate(kept_b)
    return pa, pb


def _child_pairs(pa, pb):
    """Child node pairs (a <= b) of node pairs (a <= b)."""
    same = pa == pb
    a, b, s = pa[~same], pb[~same], pa[same]
    return (
        np.concatenate([2 * a, 2 * a, 2 * a + 1, 2 * a + 1, 2 * s, 2 * s, 2 * s + 1]),
        np.concatenate([2 * b, 2 * b + 1, 2 * b, 2 * b + 1, 2 * s, 2 * s + 1, 2 * s + 1]),
    )


def _leaf_pair_points(tree, pa, pb):
    """Point pairs (i, j) covered by leaf pairs; i before j inside one leaf."""
    starts = tree.levels[-1]
    sizes = np.diff(starts)
    u = np.arange(int(sizes.max()))
    last = starts[-1] - 1
    ida = tree.perm[np.minimum(starts[pa][:, None] + u, last)][:, :, None]
    idb = tree.perm[np.minimum(starts[pb][:, None] + u, last)][:, None, :]
    ok = (u[:, None] < sizes[pa][:, None, None]) & (u < sizes[pb][:, None, None])
    ok &= (pa != pb)[:, None, None] | (u[:, None] < u)
    return np.broadcast_to(ida, ok.shape)[ok], np.broadcast_to(idb, ok.shape)[ok]


class _Partners:
    """The node pairs tree.pairs of one level as lists per point.

    Every point within the radius of a point p lies under a node of level
    S that is paired with p's own node there (tree.pairs lists every pair
    of level-S nodes whose boxes are within it), so a query from p may
    start from those partners instead of the root.
    """

    def __init__(self, tree):
        self.level, pa, pb = tree.pairs
        starts = tree.levels[self.level]
        self.node = np.empty(tree.perm.size, dtype=np.int64)
        self.node[tree.perm] = np.repeat(np.arange(starts.size - 1), np.diff(starts))
        off = pa != pb
        a = np.concatenate([pa, pb[off]])
        self.partner = np.concatenate([pb, pa[off]])[np.argsort(a, kind="stable")]
        self.ptr = np.zeros(starts.size, dtype=np.int64)
        np.cumsum(np.bincount(a, minlength=starts.size - 1), out=self.ptr[1:])

    def of(self, points):
        """(position in points, node) for every partner of every point."""
        node = self.node[points]
        first, count = self.ptr[node], self.ptr[node + 1] - self.ptr[node]
        row = np.repeat(np.arange(points.size), count)
        return row, self.partner[first[row] + np.arange(row.size) - (np.cumsum(count) - count)[row]]


def _query(tree, its, r2, points, partners, counts):
    """(position in points, point) candidates for a few query points.

    The descent starts from the partners of the points' nodes, ends at
    level len(counts) - 1 and drops every node that counts gives no alive
    point before testing its box.
    """
    row, node = partners.of(points)
    live = np.flatnonzero(counts[partners.level][node])
    row, node = row[live], node[live]
    for L in range(partners.level + 1, len(counts)):
        row = np.repeat(row, 2)
        node = (2 * node[:, None] + np.arange(2)).ravel()
        live = np.flatnonzero(counts[L][node])
        keep = live[tree.close(its, r2, None, points[row[live]], L, node[live])]
        row, node = row[keep], node[keep]
    node_row, j = tree.node_points(len(counts) - 1, node)
    return row[node_row], j


def _join_edges(tree, leaves, conflicts):
    """The conflicting point pairs (i, j) under the leaf pairs of a self-join."""
    per = CHUNK_PAIRS // int(np.diff(tree.levels[-1]).max()) ** 2 + 1
    return _conflicting(conflicts, (_leaf_pair_points(tree, a, b) for a, b in _chunks(*leaves, per)))


def _chunks(i, j, size):
    """The pairs (i, j) in slices of size."""
    return ((i[s : s + size], j[s : s + size]) for s in range(0, i.size, size))


def _conflicting(conflicts, chunks):
    """The pairs of every chunk (i, j) that conflicts keeps, as int32."""
    us, ws = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for i, j in chunks:
        hit = conflicts(i, j)
        us.append(i[hit].astype(np.int32, copy=False))
        ws.append(j[hit].astype(np.int32, copy=False))
    return np.concatenate(us), np.concatenate(ws)


def _edge_greedy(i, j, order):
    """Scan order over the conflict graph with edges (i, j), in rounds.

    Points are taken by their rank in order, and an edge joins an earlier
    (lo) and a later (hi) endpoint; the graph has no loops (i != j), but
    an edge may be listed more than once, either way round.  A round accepts
    every undecided point with no undecided earlier neighbour, rejects
    the later neighbours of the points it accepted, and keeps the edges
    between points still undecided.

    The result is the sequential scan's.  Invariant, true before the first
    round: no undecided point has an accepted earlier neighbour, and every
    edge between two undecided points is kept.  A point a accepted in a
    round has no kept edge to an earlier point, so all its earlier
    neighbours are decided, and by the invariant none was accepted: they
    were all rejected, and the scan reaches a with none of its earlier
    neighbours accepted, so it accepts a.  A point rejected in the round
    has an earlier neighbour accepted in it, so the scan rejects it too
    (by induction over the rounds, every earlier decision is the scan's).
    Every kept edge from a newly accepted point has its later end
    rejected, so the invariant holds after the round.  The undecided point
    of lowest rank has no undecided earlier neighbour, so every round
    accepts a point, and the rounds end when no edge is kept: then every
    undecided point is accepted.

    A chain in rank order, such as index order on points sorted in space,
    decides few points per round.  When a round removes less than half of
    the kept edges, _finish scans the undecided points over the kept
    edges; by the invariant that scan decides them as the sequential one.
    So at most log2 of the edge count rounds run before it.
    """
    N = order.size
    rank = np.empty(N, dtype=np.int32)
    rank[order] = np.arange(N, dtype=np.int32)
    lo, hi = rank[i], rank[j]
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    accepted = np.zeros(N, dtype=bool)
    undecided = np.ones(N, dtype=bool)
    while lo.size:
        blocked = np.zeros(N, dtype=bool)
        blocked[hi] = True
        won = undecided & ~blocked
        accepted |= won
        # the points left undecided: those with an undecided earlier
        # neighbour, less the later neighbours of the points just accepted
        undecided = blocked
        undecided[hi[won[lo]]] = False
        live = undecided[lo] & undecided[hi]
        if 2 * np.count_nonzero(live) > lo.size:
            _finish(undecided, lo[live], hi[live])
            break
        lo, hi = lo[live], hi[live]
    accepted |= undecided
    return order[accepted]


def _finish(undecided, lo, hi):
    """The sequential scan of the undecided points over the edges (lo, hi)
    between them, by rank: undecided keeps the points it accepts."""
    dst = hi[np.argsort(lo, kind="stable")]
    later = np.bincount(lo, minlength=undecided.size)
    ptr = np.zeros(undecided.size + 1, dtype=np.int64)
    np.cumsum(later, out=ptr[1:])
    for v in np.flatnonzero(later).tolist():
        if undecided[v]:
            undecided[dst[ptr[v] : ptr[v + 1]]] = False


def _scan(tree, its, r2, conflicts, order):
    """Ordered greedy that resolves each block, then searches its accepted points.

    A block is the next SCAN_BLOCK points of the order still alive.  The
    greedy first runs inside the block over its own pairwise conflicts;
    the points it accepts are then searched in the tree, from the partners
    of their nodes at the level of tree.pairs down to QUERY_STOP levels
    above the leaves, through nodes that held an alive point when the
    block began, and every alive point one of them conflicts with is
    removed before the next block.
    """
    N = order.size
    alive = np.ones(N, dtype=bool)
    accepted = []
    pos = 0
    group = QUERY_GROUP
    partners = _Partners(tree)
    deepest = max(len(tree.levels) - 1 - QUERY_STOP, partners.level)
    while True:
        block, pos = _next_alive(order, alive, pos)
        if block.size == 0:
            return accepted
        alive[block] = False
        counts = tree.alive_counts(alive, deepest)
        iu, ju = np.triu_indices(block.size, 1)
        hit = conflicts(block[iu], block[ju])
        won = block[_edge_greedy(iu[hit], ju[hit], np.arange(block.size))]
        accepted.extend(won.tolist())
        s = 0
        while s < won.size:
            q, j = _query(tree, its, r2, won[s : s + group], partners, counts)
            q += s
            s += group
            # keep a group's candidate list near CHUNK_PAIRS
            group = int(min(SCAN_BLOCK, max(1, group * CHUNK_PAIRS // max(j.size, 1))))
            keep = alive[j]
            alive[_conflicting(conflicts, _chunks(won[q[keep]], j[keep], CHUNK_PAIRS))[1]] = False


def _next_alive(order, alive, pos):
    """The next SCAN_BLOCK alive points of order from pos, and the new pos."""
    taken = [np.zeros(0, dtype=np.int64)]
    need = SCAN_BLOCK
    while need and pos < order.size:
        window = order[pos : pos + 4 * SCAN_BLOCK]
        live = np.flatnonzero(alive[window])[:need]
        taken.append(window[live])
        need -= live.size
        pos += int(live[-1]) + 1 if need == 0 else window.size
    return np.concatenate(taken), pos


def _is_permutation(order, N):
    """Whether the integer array order lists each of 0..N-1 exactly once."""
    if order.shape != (N,):
        return False
    if N and (order.min() < 0 or order.max() >= N):
        return False
    seen = np.zeros(N, dtype=bool)
    seen[order] = True
    return bool(seen.all())


def padded_radius(delta):
    """The search radius for delta, padded by RADIUS_PAD."""
    return delta * (1.0 + RADIUS_PAD[0]) + RADIUS_PAD[1]


def greedy_thinning(prim, reps, wrap_mask, n, delta, order):
    """Accepted indices of the greedy separated/covering pass.

    prim: (n_max, N, C); reps: (n_max, N, R, C), the other representatives
    of each point (none on the torus, nor on a mapping-torus cloud that no
    seam lift comes near: see SampleCloud.rep_table); order: a permutation
    of range(N), else ValueError, as for an n that is not an integer in
    1..n_max and a delta that is not positive and finite.  Accept iff d_n
    to all previously accepted > delta; the accepted set is maximal: every
    unaccepted point sits within delta of an accepted one.  Over read-only
    tables the tree order and the listed conflict graph are kept
    (_kept_state), and a later call at a larger n on the same tables and
    delta filters the graph instead of searching the tree.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 1 or n > prim.shape[0]:
        raise ValueError("n out of range for the orbit table")
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    prim = np.asarray(prim[:n], dtype=float)
    reps = np.asarray(reps[:n], dtype=float)
    wrap = np.asarray(wrap_mask, dtype=bool)
    order = np.asarray(order, dtype=np.int64)
    if not _is_permutation(order, prim.shape[1]):
        raise ValueError("order must be a permutation of the cloud indices")
    if order.size == 0:
        return np.zeros(0, dtype=np.int64)
    r2 = padded_radius(delta) ** 2
    state = _kept_state(prim, reps, wrap)
    points = [(prim, None)] + [(reps[:, :, r], None) for r in range(reps.shape[2])]

    def conflicts_from(k):
        """The rule at iterates k..n-1 (all of them for k = 0), latest first."""
        its = range(n - 1, k - 1, -1)
        return lambda i, j: _near(its, delta * delta, wrap, points, i, points, j)

    carried = state.take_graph(delta, n)
    if carried is not None:
        # filtered at iterates n0..n-1, none when n0 = n
        i, j = _conflicting(conflicts_from(carried[0]), _chunks(*carried[1:], CHUNK_PAIRS))
    else:
        split_it = (n - 1) // 2
        its = sorted(range(n), key=lambda k: abs(k - split_it))
        tree = _Tree(state.tree_order(prim, wrap, split_it), points, wrap)
        leaves = _self_join(tree, its, r2)
        if leaves is None:
            return np.array(_scan(tree, its, r2, conflicts_from(0), order), dtype=np.int64)
        i, j = _join_edges(tree, leaves, conflicts_from(0))
    state.graph = (delta, n, i, j)
    return _edge_greedy(i, j, order)
