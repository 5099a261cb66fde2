"""Degree-bucketed batched RSMT kernels.

The scalar :func:`repro.route.rsmt.build_rsmt` builds one tree at a time;
the kernels here build every net of a degree at once on rectangular
``(B, d)`` coordinate arrays and hand back the bucket's trees as flat
node arrays (:func:`bucket_rows`), never as per-net objects:

- degree 3: the closed-form median point (a star around it);
- degree 4..``MAX_STEINER_DEGREE`` (the exact-width buckets of the route
  plan): batched iterated 1-Steiner - every off-diagonal Hanan candidate
  of every active net is scored in one Prim sweep that reads node
  distances from a per-round table, in blocks of rows that fit a
  per-core L2;
- degree 2 and every padded bucket (degree > ``MAX_STEINER_DEGREE``): a
  plain rectilinear MST, no Steiner points.  FLUTE is exact only up to
  degree 9 and breaks larger nets; searching them bought < 1% of their
  own length at converged placements for 3/4 of the build time.

The tail is shared: one batched Prim over the padded ``(B, d + T)`` node
arrays (rows with fewer inserted points finish early), childless Steiner
points peeled for the whole bucket, parent pointers re-rooted at the
drivers, depths by frontier propagation.

Every kernel reproduces the scalar construction *exactly* (same floating
point operations in the same order, same tie-breaking), so the forest
arrays are bit-identical to flattening per-net ``build_rsmt`` trees - the
equivalence suite in ``tests/test_rsmt_batch.py`` enforces this.  The
scalar path drops candidates coincident with a node; here they are scored
and masked to ``+inf``, except the diagonal ones ``(x_i, y_i)``: each is
pin ``i`` itself, coincident in every round, so it is never computed.
Dropping an always-``+inf`` candidate keeps the others in their raveled
order, and the first minimum stays the scalar path's choice.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.scatter import WORK_SET_ENTRIES
from .tree import tree_depths

__all__ = [
    "MAX_STEINER_DEGREE",
    "batched_prim",
    "batched_one_steiner",
    "bucket_rows",
]

#: The one forest-policy number.  Nets of up to this many pins are routed
#: in buckets of exactly their degree and searched for Steiner points
#: (all ``d * (d - 1) <= 56`` off-diagonal Hanan candidates scored every
#: round); larger nets share padded buckets and get a plain rectilinear MST.
MAX_STEINER_DEGREE = 8
#: float64 entries of one candidate-Prim distance table block (1 MiB): a
#: bucket is scored in row blocks of this size, so that the table and the
#: per-step key, penalty and picked-row arrays (about as large again) fit
#: one per-core L2 and each Prim step re-reads them from cache.
_TABLE_ENTRIES = WORK_SET_ENTRIES // 2


def _pairwise(ax, ay, bx, by) -> np.ndarray:
    """Rectilinear distances ``(A, len a, len b)`` between two point sets."""
    return np.abs(ax[:, :, None] - bx[:, None, :]) + np.abs(
        ay[:, :, None] - by[:, None, :]
    )


# ----------------------------------------------------------------------
# Batched Prim kernels
# ----------------------------------------------------------------------
def batched_prim(
    X: np.ndarray, Y: np.ndarray, n_nodes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Rectilinear MST over every row of ``(B, n)`` coordinate arrays.

    Returns ``(parent, total)``: ``(B, n)`` parent pointers of the MST
    rooted at node 0 (each Prim edge points from the new node to the tree
    node it attached to) and the per-row MST length.  With ``n_nodes``
    only the first ``n_nodes[r]`` columns of row ``r`` are points; the
    padding lanes keep parent ``-1``.  Bit-identical to running the
    scalar :func:`repro.route.rsmt._prim_edges` on each row (same seed
    node, same strict-improvement updates, same argmin tie-breaking).
    """
    B, n = X.shape
    parent = np.full((B, n), -1, dtype=np.int64)
    total = np.zeros(B)
    if n <= 1 or B == 0:
        return parent, total
    if n_nodes is None:
        n_nodes = np.full(B, n, dtype=np.int64)
    # Largest rows first: the rows still growing at any step are a prefix.
    order = np.argsort(-n_nodes, kind="stable")
    X, Y, n_nodes = X[order], Y[order], n_nodes[order]
    growing = np.searchsorted(-n_nodes, -np.arange(2, n + 1), side="right")
    rows = np.arange(B)
    in_tree = np.arange(n) >= n_nodes[:, None]
    in_tree[:, 0] = True
    best_dist = np.abs(X - X[:, :1]) + np.abs(Y - Y[:, :1])
    best_dist[in_tree] = np.inf
    best_src = np.zeros((B, n), dtype=np.int64)
    sorted_parent = parent.copy()
    sorted_total = total.copy()
    for k in growing[growing > 0].tolist():
        r, dist, seen = rows[:k], best_dist[:k], in_tree[:k]
        v = dist.argmin(axis=1)
        sorted_total[:k] += dist[r, v]
        sorted_parent[r, v] = best_src[r, v]
        seen[r, v] = True
        dv = np.abs(X[:k] - X[r, v][:, None]) + np.abs(Y[:k] - Y[r, v][:, None])
        better = (dv < dist) & ~seen
        np.copyto(dist, dv, where=better)
        np.copyto(best_src[:k], v[:, None], where=better)
        dist[r, v] = np.inf
    parent[order] = sorted_parent
    total[order] = sorted_total
    return parent, total


def _candidate_lengths(base: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """MST length of (row's points + one candidate) per (row, candidate).

    ``base`` is the ``(A, n, n)`` distance table of each row's points and
    ``cand`` the ``(A, C, n)`` distances of its candidates to them.  Each
    (row, candidate) pair runs Prim over its own ``(n+1, n+1)`` slice of
    one distance table with the candidate in the last lane, so a step is
    an ``argmin``, one ``take`` of the picked nodes' table rows and a
    ``minimum``; visited lanes are held at ``+inf`` by a penalty array.
    The picked keys are summed in pick order, which makes the lengths
    those of :func:`repro.route.rsmt._prim_lengths_batch` bit for bit.
    """
    A, C, n = cand.shape
    m = n + 1
    block = max(1, _TABLE_ENTRIES // (C * m * m))
    if A > block:
        return np.concatenate(
            [
                _candidate_lengths(base[i : i + block], cand[i : i + block])
                for i in range(0, A, block)
            ]
        )
    table = np.empty((A, C, m, m))
    table[:, :, :n, :n] = base[:, None]
    table[:, :, n, :n] = cand
    table[:, :, :n, n] = cand
    table[:, :, n, n] = 0.0
    table = table.reshape(A * C * m, m)
    penalty = np.zeros((A * C, m))
    penalty[:, 0] = np.inf
    row0 = np.arange(A * C) * m
    best_dist = np.maximum(table[row0], penalty)  # distances to the seed
    picked = np.empty((n, A * C))
    flat = np.empty(A * C, dtype=np.int64)
    for step in range(n):
        np.add(row0, best_dist.argmin(axis=1), out=flat)
        best_dist.take(flat, out=picked[step])
        penalty.put(flat, np.inf)
        np.minimum(best_dist, table.take(flat, axis=0), out=best_dist)
        np.maximum(best_dist, penalty, out=best_dist)
    return picked.cumsum(axis=0)[-1].reshape(A, C)


# ----------------------------------------------------------------------
# Batched iterated 1-Steiner
# ----------------------------------------------------------------------
def batched_one_steiner(
    X: np.ndarray, Y: np.ndarray, tol: float = 1e-9
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iterated 1-Steiner over a bucket of nets of one degree.

    ``X``/``Y`` are ``(B, d)`` pin coordinates.  Returns padded node
    arrays ``(XS, YS)`` of shape ``(B, d + d - 2)`` - each row's pins,
    then its Steiner points in insertion order - the per-net inserted
    counts ``n_ins`` and the ``(B, d-2)`` owner-index arrays of the
    inserted points.

    Every off-diagonal Hanan candidate is scored every round.  Candidates
    coincident with existing nodes are masked to ``+inf`` instead of
    dropped, which preserves the scalar path's first-minimum tie-breaking
    (kept candidates keep their raveled Hanan-grid order); the diagonal
    ones ``(X[i], Y[i])`` are pin ``i`` and would always be masked, so
    they are left out.  All nets of the bucket advance one insertion per
    round together.
    """
    B, d = X.shape
    T = max(d - 2, 0)
    XS = np.zeros((B, d + T))
    YS = np.zeros((B, d + T))
    XS[:, :d] = X
    YS[:, :d] = Y
    n_ins = np.zeros(B, dtype=np.int64)
    own_i = np.zeros((B, T), dtype=np.int64)
    own_j = np.zeros((B, T), dtype=np.int64)

    # Off-diagonal Hanan candidates in the scalar path's raveled (i-major)
    # order.
    ci, cj = np.nonzero(~np.eye(d, dtype=bool))
    CX, CY = X[:, ci], Y[:, cj]
    # Distance tables, grown by one lane per insertion instead of being
    # recomputed per round: node-node and candidate-node.
    base = np.full((B, d + T, d + T), np.inf)
    base[:, :d, :d] = _pairwise(X, Y, X, Y)
    dist = np.full((B, len(ci), d + T), np.inf)
    dist[:, :, :d] = _pairwise(CX, CY, X, Y)
    coincide = (dist[:, :, :d] == 0.0).any(axis=2)
    _, cur_len = batched_prim(X, Y)
    active = np.arange(B)
    for t in range(T):
        if len(active) == 0:
            break
        lane = d + t  # every active net has inserted t points so far
        lens = _candidate_lengths(base[active, :lane, :lane], dist[active, :, :lane])
        lens[coincide[active]] = np.inf
        best = lens.argmin(axis=1)
        best_len = lens[np.arange(len(active)), best]
        improves = (cur_len[active] - best_len) > tol
        active, sel = active[improves], best[improves]
        XS[active, lane] = X[active, ci[sel]]
        YS[active, lane] = Y[active, cj[sel]]
        own_i[active, t] = ci[sel]
        own_j[active, t] = cj[sel]
        n_ins[active] += 1
        cur_len[active] = best_len[improves]
        # The new point's lane: its candidate distances, and as a node
        # the distance row of the candidate it was.
        new = np.abs(CX[active] - XS[active, lane, None]) + np.abs(
            CY[active] - YS[active, lane, None]
        )
        dist[active, :, lane] = new
        coincide[active] |= new == 0.0
        base[active, lane] = base[active, :, lane] = dist[active, sel]
    return XS, YS, n_ins, own_i, own_j


# ----------------------------------------------------------------------
# Bucket -> flat tree rows
# ----------------------------------------------------------------------
def _median3(X: np.ndarray, Y: np.ndarray):
    """All degree-3 nets: exact RSMT, a star around the median point.

    Reproduces :func:`repro.route.rsmt._median3_tree`: when the median
    point coincides with a pin the star's centre is (the first such) pin
    and lane 3 stays empty, otherwise lane 3 is a Steiner node whose
    coordinate owners are the pins of median x and median y rank.
    """
    rows = np.arange(len(X))
    own_i = np.argsort(X, axis=1)[:, 1:2]
    own_j = np.argsort(Y, axis=1)[:, 1:2]
    # np.median of 3 elements is the middle order statistic.
    coincide = (X == X[rows, own_i[:, 0]][:, None]) & (
        Y == Y[rows, own_j[:, 0]][:, None]
    )
    has_hub = coincide.any(axis=1)
    centre = np.where(has_hub, coincide.argmax(axis=1), 3)
    parent = np.repeat(centre[:, None], 4, axis=1)
    parent[rows, centre] = -1
    alive = np.ones((len(X), 4), dtype=bool)
    alive[:, 3] = ~has_hub
    return parent, alive, own_i, own_j


def _peel_leaf_steiners(
    parent: np.ndarray, alive: np.ndarray, degree: np.ndarray
) -> None:
    """Clear ``alive`` on childless Steiner lanes, to a fixed point.

    In a tree rooted at a pin a Steiner node has degree <= 1 exactly when
    it has no child, so this is the scalar ``_prune_leaf_steiners`` for
    the whole bucket at once (one pass per peeled layer).
    """
    B, N = parent.shape
    flat = (parent + np.arange(B)[:, None] * N).ravel()
    steiner = np.arange(N) >= degree[:, None]
    while True:
        has_child = np.zeros(B * N, dtype=bool)
        has_child[flat[(alive & (parent >= 0)).ravel()]] = True
        leaf = alive & steiner & ~has_child.reshape(B, N)
        if not leaf.any():
            return
        alive &= ~leaf


def _reroot(parent: np.ndarray, root: np.ndarray) -> None:
    """Re-root every row's tree at ``root`` by reversing the root path.

    The parents of a tree are unique for a given root, so flipping the
    pointers along root -> old root equals the scalar DFS from the driver.
    """
    rows = np.arange(len(parent))
    node, below = root, np.full(len(parent), -1, dtype=np.int64)
    while len(rows):
        above = parent[rows, node]
        parent[rows, node] = below
        more = above >= 0
        rows, node, below = rows[more], above[more], node[more]


def bucket_rows(
    X: np.ndarray,
    Y: np.ndarray,
    pins: np.ndarray,
    driver: np.ndarray,
    degree: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Route one degree bucket; returns its trees as flat rows.

    ``X``/``Y``/``pins`` are ``(B, d)`` of which net ``r`` uses the first
    ``degree[r]`` lanes (``pins`` is ``-1`` beyond), ``driver`` the local
    driver index per net.
    Returns ``(size, parent, node_pin, owner_x_pin, owner_y_pin, is_root,
    depth)``: the node count per net and the node arrays of all B trees
    concatenated (pins first, then the surviving Steiner points in
    insertion order; ``parent`` tree-local), i.e. the row form
    :meth:`repro.route.tree.Forest.from_rows` compacts.
    """
    B, d = X.shape
    if d == 3:
        parent, alive, own_i, own_j = _median3(X, Y)
    else:
        if 4 <= d <= MAX_STEINER_DEGREE:  # an exact-width bucket: degree == d
            X, Y, n_ins, own_i, own_j = batched_one_steiner(X, Y)
        else:
            n_ins = np.zeros(B, dtype=np.int64)
            own_i = own_j = np.zeros((B, 0), dtype=np.int64)
        parent, _ = batched_prim(X, Y, degree + n_ins)
        alive = np.arange(X.shape[1]) < (degree + n_ins)[:, None]
        if n_ins.any():
            _peel_leaf_steiners(parent, alive, degree)
    N = parent.shape[1]
    lane = np.arange(N)
    rows = np.arange(B)[:, None]
    is_pin = lane < degree[:, None]
    _reroot(parent, driver)
    is_root = lane == driver[:, None]
    depth = tree_depths(
        np.where(parent >= 0, parent + rows * N, -1).ravel(), is_root.ravel()
    ).reshape(B, N)
    new_id = np.cumsum(alive, axis=1) - 1
    parent = np.where(parent >= 0, new_id[rows, parent], -1)
    node_pin = np.full((B, N), -1, dtype=np.int64)
    node_pin[:, :d] = pins
    owner_x_pin = owner_y_pin = node_pin
    if N > d:
        # Steiner lane degree + t was the t-th insertion.
        slot = np.clip(lane - degree[:, None], 0, N - d - 1)
        owner_x_pin = np.where(is_pin, node_pin, pins[rows, own_i[rows, slot]])
        owner_y_pin = np.where(is_pin, node_pin, pins[rows, own_j[rows, slot]])
    return (
        new_id[:, -1] + 1,
        parent[alive],
        node_pin[alive],
        owner_x_pin[alive],
        owner_y_pin[alive],
        is_root[alive],
        depth[alive],
    )
