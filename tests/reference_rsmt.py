"""The scalar RSMT construction, kept as the test oracle of the compiled
Steiner-forest builder (``repro.route.rsmt``, ``rsmt.c``).

Moved here from ``repro.route.rsmt`` when ``rsmt.c`` replaced both it and
the NumPy degree-bucket kernels: :func:`build_rsmt` routes one net
(degree 2: an edge; 3: the median star; 4..``MAX_STEINER_DEGREE``:
iterated 1-Steiner over the Hanan grid; larger: a plain rectilinear MST),
with its helpers ``_prim_edges``, ``_prim_lengths_batch``,
``_iterated_one_steiner``, ``_prune_leaf_steiners``, ``_assemble_tree``,
``_root_edges``, ``_median3_tree``, ``_reroot`` and :func:`rmst_length`.
The one edit: the degree-3 owners are picked by a stable argsort, which
NumPy's default sort of three elements is on every machine measured so
far; ``kind="stable"`` makes the tie-breaking the compiled builder
reproduces explicit.  :func:`reference_forest` flattens one tree per
routable net, what ``tests/test_rsmt_batch.py`` and
``benchmarks/bench_rsmt.py`` hold the compiled forest equal to.

``_finalize`` is ``Forest._finalize`` as it was in NumPy, moved here when
``forest_tables`` (``rsmt.c``) replaced it: :func:`reference_tables` runs
it on a forest's node arrays and :func:`assert_tables_match` holds every
table of the compiled pass equal to it, dtype included.  It also rebuilds
what the library no longer keeps: the per-level lists (``levels``,
``level_parent``, ``level_group_of``, ``level_groups``), ``is_steiner``,
``has_parent`` and ``node_net``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.route import MAX_STEINER_DEGREE, Forest, RoutingTree

__all__ = [
    "TABLES",
    "assert_tables_match",
    "build_rsmt",
    "reference_forest",
    "reference_tables",
    "rmst_length",
]

#: The tables of a forest besides ``level_tables`` and ``max_depth``.
TABLES = ("pin_node", "pin_nodes", "pins_of_nodes", "up", "driver_nodes", "driver_pins")


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
    owner_mx = int(np.argsort(x, kind="stable")[1])
    owner_my = int(np.argsort(y, kind="stable")[1])
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
    """Build a rooted RSMT over one net's pins.

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


def reference_forest(design, px, py, include_clock=False, nets=None) -> Forest:
    """``Forest([build_rsmt(...) per net])`` over the routable nets (>= 2
    pins, driven, non-clock unless ``include_clock``; only those of the
    boolean mask ``nets`` when given)."""
    trees: List[Optional[RoutingTree]] = []
    for ni in range(design.n_nets):
        lo, hi = design.net2pin_start[ni], design.net2pin_start[ni + 1]
        pins = design.net2pin[lo:hi]
        driver = design.net_driver[ni]
        if nets is not None:
            skip = not nets[ni]
        else:
            skip = bool(design.net_is_clock[ni]) and not include_clock
        if len(pins) < 2 or driver < 0 or skip:
            trees.append(None)
            continue
        local = int(np.nonzero(pins == driver)[0][0])
        trees.append(build_rsmt(px[pins], py[pins], pins, driver_local=local))
    return Forest(trees, design.n_pins)


def _finalize(self) -> None:
    """Everything derived from the tree arrays, once per forest.

    A forest serves every timer call until the next rebuild, so what
    those calls index with is laid out here: ``levels`` (ascending
    node id per depth), the pin <-> node maps, and the integer tables
    of the Elmore passes - ``up``, ``level_parent``, the compact
    parent groups of the bottom-up sums, the driver pins of the roots.
    All built with whole-forest array operations.
    """
    n = self.n_nodes
    self.has_parent = self.parent >= 0
    self.is_steiner = self.node_pin < 0
    self.max_depth = int(self.depth.max()) if n else 0
    counts = np.bincount(self.depth, minlength=self.max_depth + 1)
    order = np.argsort(self.depth, kind="stable")
    self.levels: List[np.ndarray] = np.split(order, np.cumsum(counts[:-1]))
    # Map: for each global pin that appears in some tree, its node index.
    self.pin_node = np.full(self.n_pins_total, -1, dtype=np.int64)
    pin_nodes = np.nonzero(~self.is_steiner)[0]
    self.pin_node[self.node_pin[pin_nodes]] = pin_nodes

    # The tables below are read a few times per timer call and kept
    # for the life of the forest: int32 halves them (a forest of 150k
    # nodes holds 20 bytes a node), at one cast per read.
    def compact(index: np.ndarray) -> np.ndarray:
        return index.astype(np.int32)

    #: Nodes that are pins, ascending, and the pin each of them is.
    self.pin_nodes = compact(pin_nodes)
    self.pins_of_nodes = compact(self.node_pin[pin_nodes])
    #: Parent of each node, a root being its own: edge quantities are
    #: whole-array expressions in ``v`` and ``up[v]`` that come out
    #: exactly zero at the roots.
    self.up = compact(np.where(self.has_parent, self.parent, np.arange(n)))
    #: Root nodes that are pins (drivers), and those pins.
    roots = self.levels[0]
    driven = roots[self.node_pin[roots] >= 0]
    self.driver_nodes = compact(driven)
    self.driver_pins = compact(self.node_pin[driven])

    # Per level l >= 1, aligned with ``levels[l]``: the parent of each
    # node, and its parent's group - the distinct parents of a level
    # are ``level_groups[l]`` (ascending), node i adds into
    # ``level_groups[l][level_group_of[l][i]]``.  Entry 0 of each list
    # is empty (roots have no parent); all are views of three arrays.
    n_roots = int(counts[0]) if n else 0
    par = self.parent[order[n_roots:]]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    is_group = np.zeros(n, dtype=bool)
    is_group[rank[par]] = True  # in level-major order
    group_id = np.cumsum(is_group) - 1
    groups = order[is_group]
    # Groups of level l's nodes sit in level l - 1, contiguously.
    first = np.searchsorted(
        self.depth[groups], np.arange(self.max_depth + 1)
    )
    group_of = group_id[rank[par]] - np.repeat(first[:-1], counts[1:])
    cuts = np.cumsum(counts[:-1]) - n_roots
    par, group_of, groups = compact(par), compact(group_of), compact(groups)
    self.level_parent = np.split(par, cuts)
    self.level_group_of = np.split(group_of, cuts)
    self.level_groups = np.split(groups, first[:-1])
    #: The arrays the per-level lists above are views of, and where
    #: each depth starts in them (``order`` and the parent columns by
    #: ``level_start``, less the roots; ``groups`` by ``group_start``):
    #: what the compiled Elmore passes read.
    level_start = np.zeros(self.max_depth + 2, dtype=np.int64)
    np.cumsum(counts, out=level_start[1:])
    self.level_tables = (order, par, group_of, groups, level_start, first)
    #: The forest as the compiled passes read it (built on first use).
    self.kernel_view = None
    #: (pin_cap, extra_pin_cap, caps) of the last ``design_elmore``.
    self.caps_cache = None


def reference_tables(forest: Forest) -> SimpleNamespace:
    """What ``_finalize`` lays out from ``forest``'s node arrays, and its
    ``node_net``."""
    tables = SimpleNamespace(
        n_nodes=forest.n_nodes,
        n_pins_total=forest.n_pins_total,
        parent=forest.parent,
        depth=forest.depth,
        node_pin=forest.node_pin,
    )
    _finalize(tables)
    tables.node_net = np.repeat(np.arange(forest.n_nets), np.diff(forest.node_offset))
    return tables


def assert_tables_match(forest: Forest) -> SimpleNamespace:
    """Every table of ``forest`` equals the oracle's, dtype included;
    returns the oracle's."""
    want = reference_tables(forest)
    assert forest.max_depth == want.max_depth
    assert len(forest.level_tables) == len(want.level_tables)
    for name, got, ref in zip(
        ("order", "parent", "group_of", "groups", "level_start", "group_start"),
        forest.level_tables, want.level_tables,
    ):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    for name in TABLES:
        got, ref = getattr(forest, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    return want
