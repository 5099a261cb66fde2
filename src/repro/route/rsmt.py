"""Rectilinear Steiner minimal tree construction.

This is the FLUTE substitute of the reproduction (the paper notes FLUTE is
replaceable by any RSMT generator).  Strategy by net degree:

- degree 2: a single edge;
- degree 3: the median point (the exact RSMT for three terminals);
- degree 4..``MAX_STEINER_DEGREE`` (= 8): iterated 1-Steiner over the whole
  Hanan grid (Kahng-Robins), inserting the candidate with the best exact
  MST-length gain until no candidate helps;
- larger nets: plain rectilinear minimum spanning tree (no Steiner points;
  FLUTE likewise stops being exact at degree 9 and breaks larger nets).

:func:`build_rsmt` is the single-net scalar reference (and the clock-tree
router); whole forests are built by :func:`build_forest_for_nets` from
the design's route plan and the batched kernels of :mod:`repro.route.batch`,
bit-identical to flattening per-net ``build_rsmt`` trees.

Every Steiner point is a Hanan point ``(x of pin i, y of pin j)`` and
records ``(i, j)`` as its coordinate owners, which is what makes the tree
differentiable with respect to pin locations (Figure 4 of the paper).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.design import Design
from .batch import MAX_STEINER_DEGREE, bucket_rows
from .plan import route_plan
from .tree import Forest, RoutingTree

__all__ = [
    "build_rsmt",
    "build_trees",
    "build_forest",
    "build_forest_for_nets",
    "build_forest_from_pins",
    "rmst_length",
]


def _prim_edges(x: np.ndarray, y: np.ndarray) -> Tuple[List[Tuple[int, int]], float]:
    """Rectilinear MST via vectorised Prim; returns (edges, total length)."""
    n = len(x)
    if n <= 1:
        return [], 0.0
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_src = np.zeros(n, dtype=np.int64)
    in_tree[0] = True
    dist0 = np.abs(x - x[0]) + np.abs(y - y[0])
    better = dist0 < best_dist
    best_dist[better] = dist0[better]
    best_src[better] = 0
    best_dist[0] = np.inf
    edges: List[Tuple[int, int]] = []
    total = 0.0
    for _ in range(n - 1):
        v = int(np.argmin(best_dist))
        total += float(best_dist[v])
        edges.append((int(best_src[v]), v))
        in_tree[v] = True
        dist_v = np.abs(x - x[v]) + np.abs(y - y[v])
        better = (dist_v < best_dist) & ~in_tree
        best_dist[better] = dist_v[better]
        best_src[better] = v
        best_dist[v] = np.inf
    return edges, total


def rmst_length(x: np.ndarray, y: np.ndarray) -> float:
    """Length of the rectilinear MST over the given points."""
    return _prim_edges(np.asarray(x, float), np.asarray(y, float))[1]


def _prim_lengths_batch(
    x: np.ndarray, y: np.ndarray, cand_x: np.ndarray, cand_y: np.ndarray
) -> np.ndarray:
    """MST length of (base points + one candidate) for every candidate.

    Runs Prim simultaneously over ``C`` point sets that share the same
    ``n`` base points and differ only in one extra point each; all state
    is vectorised across candidates, which is what makes the iterated
    1-Steiner pass affordable in pure NumPy.
    """
    n = len(x)
    c = len(cand_x)
    if c == 0:
        return np.zeros(0)
    # Node layout per candidate set: 0..n-1 base points, n = candidate.
    xs = np.broadcast_to(x, (c, n))
    ys = np.broadcast_to(y, (c, n))
    all_x = np.concatenate([xs, cand_x[:, None]], axis=1)  # (C, n+1)
    all_y = np.concatenate([ys, cand_y[:, None]], axis=1)

    rows = np.arange(c)
    in_tree = np.zeros((c, n + 1), dtype=bool)
    in_tree[:, 0] = True
    # Seed from node 0.
    best_dist = np.abs(all_x - all_x[:, :1]) + np.abs(all_y - all_y[:, :1])
    best_dist[:, 0] = np.inf
    total = np.zeros(c)
    for _ in range(n):
        v = np.argmin(best_dist, axis=1)
        total += best_dist[rows, v]
        in_tree[rows, v] = True
        vx = all_x[rows, v][:, None]
        vy = all_y[rows, v][:, None]
        dv = np.abs(all_x - vx) + np.abs(all_y - vy)
        best_dist = np.minimum(best_dist, dv)
        best_dist[in_tree] = np.inf
    return total


def _root_edges(
    n: int, edges: Sequence[Tuple[int, int]], root: int
) -> np.ndarray:
    """Convert an undirected edge list into parent pointers toward root."""
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    if not seen.all():
        raise ValueError("edge list does not span all nodes")
    return parent


def _median3_tree(
    x: np.ndarray, y: np.ndarray, pins: np.ndarray, root: int
) -> RoutingTree:
    """Exact RSMT for three terminals: connect all pins to the median point."""
    mx = float(np.median(x))
    my = float(np.median(y))
    owner_mx = int(np.argsort(x)[1])
    owner_my = int(np.argsort(y)[1])
    coincident = np.nonzero((x == mx) & (y == my))[0]
    if len(coincident) > 0:
        # The median point is an existing pin: star topology around it.
        hub = int(coincident[0])
        parent = np.full(3, hub, dtype=np.int64)
        parent[hub] = -1
        tree = RoutingTree(
            x=x.copy(),
            y=y.copy(),
            parent=parent,
            pins=pins.copy(),
            owner_x=np.arange(3),
            owner_y=np.arange(3),
            root=hub,
        )
        return _reroot(tree, root)
    xs = np.concatenate([x, [mx]])
    ys = np.concatenate([y, [my]])
    parent = np.array([3, 3, 3, -1], dtype=np.int64)
    tree = RoutingTree(
        x=xs,
        y=ys,
        parent=parent,
        pins=np.concatenate([pins, [-1]]),
        owner_x=np.array([0, 1, 2, owner_mx], dtype=np.int64),
        owner_y=np.array([0, 1, 2, owner_my], dtype=np.int64),
        root=3,
    )
    return _reroot(tree, root)


def _reroot(tree: RoutingTree, new_root: int) -> RoutingTree:
    """Re-root a tree at a different node by flipping parent pointers."""
    if new_root == tree.root:
        return tree
    parent = tree.parent.copy()
    path = [new_root]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
    for child, par in zip(path, path[1:]):
        parent[par] = child
    parent[new_root] = -1
    tree.parent = parent
    tree.root = new_root
    return tree


def _iterated_one_steiner(
    x: np.ndarray, y: np.ndarray, tol: float = 1e-9
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
    """Insert Hanan-grid Steiner points while they shorten the MST.

    Returns the augmented coordinates and the (x-owner, y-owner) pin index
    pair for each inserted Steiner point.  Construction is a pure function
    of the coordinates: rebuilding an unmoved net reproduces the
    identical tree.
    """
    n_pins = len(x)
    xs = x.copy()
    ys = y.copy()
    owners: List[Tuple[int, int]] = []
    _, current_len = _prim_edges(xs, ys)
    max_inserts = max(n_pins - 2, 0)
    for _ in range(max_inserts):
        # Hanan candidates from pin coordinates only (owners must be pins).
        cand_i, cand_j = np.meshgrid(
            np.arange(n_pins), np.arange(n_pins), indexing="ij"
        )
        cand_i = cand_i.ravel()
        cand_j = cand_j.ravel()
        cx = x[cand_i]
        cy = y[cand_j]
        # Drop candidates coincident with existing nodes.
        keep = ~(
            (cx[:, None] == xs[None, :]) & (cy[:, None] == ys[None, :])
        ).any(axis=1)
        cand_i, cand_j, cx, cy = cand_i[keep], cand_j[keep], cx[keep], cy[keep]
        if len(cx) == 0:
            break
        new_lens = _prim_lengths_batch(xs, ys, cx, cy)
        best = int(np.argmin(new_lens))
        best_len = float(new_lens[best])
        if current_len - best_len <= tol:
            break
        xs = np.concatenate([xs, [cx[best]]])
        ys = np.concatenate([ys, [cy[best]]])
        owners.append((int(cand_i[best]), int(cand_j[best])))
        current_len = best_len
    return xs, ys, owners


def _prune_leaf_steiners(
    xs: np.ndarray,
    ys: np.ndarray,
    edges: Sequence[Tuple[int, int]],
    n_pins: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Remove Steiner nodes of degree <= 1, iterating to a fixed point.

    Returns the remapped coordinates/edges plus the *original* index of
    each surviving node (pins always survive and keep their order).

    The peel is fully vectorised: degrees come from ``np.bincount`` and
    membership tests are boolean-mask lookups, so one iteration is O(E)
    (a chain of S dangling Steiner points still needs S iterations, one
    per peeled layer, but never the quadratic list scans the original
    implementation performed).  The returned ``edges`` is an ``(E, 2)``
    int array in the same order as the input.
    """
    n = len(xs)
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    original = np.arange(n, dtype=np.int64)
    while True:
        degree = np.bincount(edge_arr.ravel(), minlength=n)
        removed = (original >= n_pins) & (degree <= 1)
        if not removed.any():
            break
        edge_keep = ~(removed[edge_arr[:, 0]] | removed[edge_arr[:, 1]])
        keep = np.nonzero(~removed)[0]
        remap_step = np.full(n, -1, dtype=np.int64)
        remap_step[keep] = np.arange(len(keep))
        xs = xs[keep]
        ys = ys[keep]
        original = original[keep]
        edge_arr = remap_step[edge_arr[edge_keep]]
        n = len(xs)
    return xs, ys, edge_arr, original


def _assemble_tree(
    x: np.ndarray,
    y: np.ndarray,
    pins: np.ndarray,
    driver_local: int,
    xs: np.ndarray,
    ys: np.ndarray,
    owners: List[Tuple[int, int]],
    edges: Optional[Sequence[Tuple[int, int]]] = None,
) -> RoutingTree:
    """Shared tail of RSMT construction: MST edges -> prune -> root.

    ``xs``/``ys`` are the pin coordinates plus any inserted Steiner
    points (in insertion order, owners parallel to the Steiner suffix).
    ``edges`` may carry a precomputed MST edge list (the batched path
    extracts edges for a whole bucket at once); when omitted the scalar
    Prim kernel runs here.
    """
    n = len(x)
    if edges is None:
        edges, _ = _prim_edges(xs, ys)
    xs, ys, edges, original = _prune_leaf_steiners(xs, ys, edges, n)
    n_total = len(xs)
    n_steiner = n_total - n
    owner_x = np.arange(n_total, dtype=np.int64)
    owner_y = np.arange(n_total, dtype=np.int64)
    for v in range(n, n_total):
        k = int(original[v]) - n  # index into the insertion-order owner list
        owner_x[v] = owners[k][0]
        owner_y[v] = owners[k][1]
    parent = _root_edges(n_total, edges, driver_local)
    return RoutingTree(
        x=xs,
        y=ys,
        parent=parent,
        pins=np.concatenate([pins, np.full(n_steiner, -1, dtype=np.int64)]),
        owner_x=owner_x,
        owner_y=owner_y,
        root=driver_local,
    )


def build_rsmt(
    pin_x: np.ndarray,
    pin_y: np.ndarray,
    pin_ids: np.ndarray,
    driver_local: int = 0,
) -> RoutingTree:
    """Build a rooted RSMT over one net's pins (the scalar reference).

    Parameters
    ----------
    pin_x, pin_y:
        Pin coordinates.
    pin_ids:
        Global pin indices (stored in the tree's ``pins`` array).
    driver_local:
        Local index of the driver pin; the tree is rooted there.
    """
    x = np.asarray(pin_x, dtype=np.float64)
    y = np.asarray(pin_y, dtype=np.float64)
    pins = np.asarray(pin_ids, dtype=np.int64)
    n = len(x)
    if n == 0:
        raise ValueError("cannot route an empty net")
    if n == 1:
        return RoutingTree(
            x=x.copy(),
            y=y.copy(),
            parent=np.array([-1], dtype=np.int64),
            pins=pins.copy(),
            owner_x=np.zeros(1, dtype=np.int64),
            owner_y=np.zeros(1, dtype=np.int64),
            root=0,
        )
    if n == 2:
        parent = np.full(2, -1, dtype=np.int64)
        parent[1 - driver_local] = driver_local
        return RoutingTree(
            x=x.copy(),
            y=y.copy(),
            parent=parent,
            pins=pins.copy(),
            owner_x=np.arange(2),
            owner_y=np.arange(2),
            root=driver_local,
        )
    if n == 3:
        return _median3_tree(x, y, pins, driver_local)

    if n <= MAX_STEINER_DEGREE:
        xs, ys, owners = _iterated_one_steiner(x, y)
    else:
        xs, ys, owners = x.copy(), y.copy(), []

    return _assemble_tree(x, y, pins, driver_local, xs, ys, owners)


def build_forest_for_nets(
    design: Design,
    px: np.ndarray,
    py: np.ndarray,
    include_clock: bool = False,
) -> Forest:
    """The one forest builder: route nets from explicit *pin* coordinates.

    Routes every routable net (>= 2 pins, driven, non-clock unless
    ``include_clock``).  Each degree bucket of the design's route plan
    goes through one batched kernel call and the rows are compacted into
    the flat :class:`Forest` once; no per-net object is created.  Each
    tree is a pure function of its own pins' coordinates.
    """
    plan = route_plan(design, include_clock)
    nets, rows = [], []
    for bucket in plan.buckets.values():
        nets.append(bucket.nets)
        rows.append(bucket_rows(px[bucket.pins], py[bucket.pins], *bucket[1:]))
    if not rows:
        return Forest([None] * plan.n_nets, plan.n_pins)
    return Forest.from_rows(
        plan.n_nets,
        plan.n_pins,
        np.concatenate(nets),
        *(np.concatenate(field) for field in zip(*rows)),
    )


def build_forest(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
) -> Forest:
    """Route every timing net of a placement into a flat Forest."""
    return build_forest_for_nets(design, *design.pin_positions(cell_x, cell_y))


def build_forest_from_pins(design: Design, px: np.ndarray, py: np.ndarray) -> Forest:
    """Route every timing net from explicit per-pin coordinates."""
    return build_forest_for_nets(design, px, py)


def build_trees(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
    include_clock: bool = False,
) -> List[Optional[RoutingTree]]:
    """Tree view of every net of a design (``None`` where none is routed).

    Clock nets are skipped by default (the evaluation uses an ideal clock),
    as are driverless and single-pin nets.
    """
    px, py = design.pin_positions(cell_x, cell_y)
    return build_forest_for_nets(design, px, py, include_clock).trees(px, py)
