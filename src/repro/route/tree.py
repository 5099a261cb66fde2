"""Routing-tree data structures.

A :class:`RoutingTree` is a rooted rectilinear tree over one net: its nodes
are the net's pins plus router-inserted Steiner points, with parent pointers
toward the driver.  Every node records which pin *owns* each of its
coordinates (Figure 4 of the paper): a Steiner point created on the Hanan
grid copies its x from one pin and its y from another, so under small pin
perturbations it moves with those pins and gradients on Steiner coordinates
are routed to the owning pins.

A :class:`Forest` flattens many trees into contiguous arrays with a global
depth ordering, which is what the vectorised Elmore kernels (both the golden
and the differentiable timer) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.cbuild import load_kernels

__all__ = ["RoutingTree", "Forest", "gather_csr", "tree_depths"]

ffi, lib = load_kernels()
_CTYPES = {np.int32: "int32_t[]", np.int64: "int64_t[]"}


@dataclass
class RoutingTree:
    """A rooted rectilinear Steiner tree for a single net.

    Attributes
    ----------
    x, y:
        Node coordinates.  Nodes ``0..n_pins-1`` are the net pins in the
        order given at construction; the rest are Steiner points.
    parent:
        Parent node index per node; the root (driver) has parent ``-1``.
    pins:
        Global pin index per node (``-1`` for Steiner points).
    owner_x, owner_y:
        Local node index of the *pin* node owning each coordinate.  Pin
        nodes own themselves.
    root:
        Local index of the driver node.
    """

    x: np.ndarray
    y: np.ndarray
    parent: np.ndarray
    pins: np.ndarray
    owner_x: np.ndarray
    owner_y: np.ndarray
    root: int

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    @property
    def n_pins(self) -> int:
        return int(np.count_nonzero(self.pins >= 0))

    def edge_lengths(self) -> np.ndarray:
        """Rectilinear length of the edge to each node's parent (0 at root)."""
        lengths = np.zeros(self.n_nodes)
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        lengths[has_parent] = np.abs(self.x[has_parent] - self.x[p]) + np.abs(
            self.y[has_parent] - self.y[p]
        )
        return lengths

    def wirelength(self) -> float:
        """Total rectilinear wirelength of the tree."""
        return float(self.edge_lengths().sum())

    def depths(self) -> np.ndarray:
        """Distance (in edges) of each node from the root."""
        depth = np.full(self.n_nodes, -1, dtype=np.int64)
        depth[self.root] = 0
        # Parent pointers form a DAG toward the root; iterate until settled.
        pending = True
        while pending:
            pending = False
            for v in range(self.n_nodes):
                if depth[v] < 0 and self.parent[v] >= 0 and depth[self.parent[v]] >= 0:
                    depth[v] = depth[self.parent[v]] + 1
                    pending = True
        return depth

    def validate(self) -> None:
        """Raise AssertionError if the tree structure is inconsistent."""
        assert self.parent[self.root] == -1, "root must have no parent"
        assert (self.parent != np.arange(self.n_nodes)).all(), "self-loop"
        depth = self.depths()
        assert (depth >= 0).all(), "tree is disconnected"
        for arr in (self.owner_x, self.owner_y):
            assert ((arr >= 0) & (arr < self.n_nodes)).all()
            assert (self.pins[arr] >= 0).all(), "owners must be pin nodes"
        pin_nodes = np.nonzero(self.pins >= 0)[0]
        assert (self.owner_x[pin_nodes] == pin_nodes).all()
        assert (self.owner_y[pin_nodes] == pin_nodes).all()


def gather_csr(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR runs ``starts[i] : starts[i]+counts[i]``."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + offsets


def tree_depths(parent: np.ndarray, is_root: np.ndarray) -> np.ndarray:
    """Edge distance to the root per node of a flat parent-pointer forest.

    Frontier propagation over a shrinking work list: one pass per depth
    level, each only over the nodes not settled yet.  Nodes that reach no
    root (padding lanes of a bucket) keep depth ``-1``.
    """
    depth = np.where(is_root, 0, -1).astype(np.int64)
    todo = np.nonzero(parent >= 0)[0]
    while len(todo):
        above = depth[parent[todo]]
        settled = above >= 0
        if not settled.any():
            break
        depth[todo[settled]] = above[settled] + 1
        todo = todo[~settled]
    return depth


class Forest:
    """Flat arrays of the routing trees of many nets - the primary form.

    Node arrays are concatenated in net order (``node_offset[ni]`` is the
    first node of net ``ni``, unrouted nets are empty); each tree lists
    its pins first, in net pin order, then its Steiner points.
    ``level_tables`` orders the nodes by tree depth so bottom-up/top-down
    dynamic-programming passes run one depth level at a time, mirroring
    the paper's GPU kernel structure (the compiled passes of
    :mod:`repro.core.sweep` read them).  The compiled
    builder (``rsmt.c``) writes these arrays directly through
    :meth:`from_rows`; a :class:`RoutingTree` is only a view materialised
    on request by :meth:`tree`.
    """

    def __init__(
        self, trees: Sequence[Optional[RoutingTree]], n_pins_total: int
    ) -> None:
        """Flatten explicit trees (scalar reference, clock tree, tests)."""
        live = [(ni, t) for ni, t in enumerate(trees) if t is not None]

        def cat(field) -> np.ndarray:
            parts = [field(t) for _, t in live]
            return np.concatenate(parts) if parts else np.zeros(0, np.int64)

        self._assemble(
            len(trees),
            n_pins_total,
            np.array([ni for ni, _ in live], dtype=np.int64),
            np.array([t.n_nodes for _, t in live], dtype=np.int64),
            cat(lambda t: t.parent),
            cat(lambda t: t.pins),
            cat(lambda t: t.pins[t.owner_x]),
            cat(lambda t: t.pins[t.owner_y]),
            cat(lambda t: np.arange(t.n_nodes) == t.root).astype(bool),
        )

    @classmethod
    def from_rows(cls, *args, **kwargs) -> "Forest":
        """Forest from per-tree rows in net order (see ``_assemble``)."""
        forest = cls.__new__(cls)
        forest._assemble(*args, **kwargs)
        return forest

    def _assemble(
        self,
        n_nets: int,
        n_pins_total: int,
        net: np.ndarray,
        size: np.ndarray,
        parent: np.ndarray,
        node_pin: np.ndarray,
        owner_x_pin: np.ndarray,
        owner_y_pin: np.ndarray,
        is_root: np.ndarray,
        depth: Optional[np.ndarray] = None,
    ) -> None:
        """The one compaction: rows of trees -> flat arrays.

        Row ``r`` is the tree of net ``net[r]`` (ascending) with ``size[r]``
        nodes; the node arrays are the rows concatenated, ``parent``
        row-local (``-1`` at the root; made global in a copy by
        ``forest_offsets`` of ``rsmt.c``, with ``node_offset``).  ``depth``
        is computed here when the caller did not derive it per tree.
        Raises ``ValueError`` for a net out of order or range, row sizes
        that do not add up to the node arrays, or a parent outside its row.
        """
        self.n_nets = n_nets
        self.n_pins_total = n_pins_total
        self.node_offset = np.empty(n_nets + 1, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        rows = ffi.new("forest_rows_t *")
        net = np.ascontiguousarray(net, dtype=np.int64)
        size = np.ascontiguousarray(size, dtype=np.int64)
        rows.n_nets, rows.n_rows, rows.n_nodes = n_nets, len(net), len(self.parent)
        rows.net, rows.size = held = [
            ffi.from_buffer("int64_t[]", net), ffi.from_buffer("int64_t[]", size),
        ]
        bad = lib.forest_offsets(
            rows, ffi.from_buffer("int64_t[]", self.node_offset),
            ffi.from_buffer("int64_t[]", self.parent),
        )
        if bad > len(net):
            raise ValueError(f"forest node {bad - len(net) - 1}: parent outside its tree")
        if bad >= 0:
            raise ValueError(
                f"forest row {bad}: net out of order or range, or the rows "
                f"do not hold the {len(self.parent)} nodes"
            )
        self.n_nodes = int(self.node_offset[-1])
        self.node_pin = node_pin
        self.owner_x_pin = owner_x_pin
        self.owner_y_pin = owner_y_pin
        self.is_root = is_root
        self.depth = tree_depths(self.parent, is_root) if depth is None else depth
        self._finalize()

    def _finalize(self) -> None:
        """Everything derived from the tree arrays, once per forest.

        A forest serves every timer call until the next rebuild, so what
        those calls index with is laid out here, in one compiled pass
        (``forest_sizes`` + ``forest_tables`` of ``rsmt.c``): the nodes
        by depth and the per-depth parent groups of the Elmore passes
        (:attr:`level_tables`), the pin <-> node maps, ``up``, and the
        driver pins of the roots.  The integer tables are int32: read a
        few times per timer call and kept for the life of the forest.
        Raises ``ValueError`` for a node whose depth, parent or pin is out
        of range.
        """
        n = self.n_nodes
        if not len(self.parent) == len(self.depth) == len(self.node_pin) == n:
            raise ValueError(f"forest node arrays of unequal lengths for {n} nodes")
        nodes = ffi.new("forest_nodes_t *")
        keep = [
            ffi.from_buffer("int64_t[]", np.ascontiguousarray(a, dtype=np.int64))
            for a in (self.parent, self.depth, self.node_pin)
        ]
        nodes.n_nodes, nodes.n_pins = n, self.n_pins_total
        nodes.parent, nodes.depth, nodes.node_pin = keep
        group = np.empty(n, dtype=np.int32)
        sizes = ffi.new("forest_sizes_t *")
        bad = lib.forest_sizes(nodes, ffi.from_buffer("int32_t[]", group), sizes)
        if bad >= 0:
            raise ValueError(f"forest node {bad} has a depth, parent or pin out of range")
        self.max_depth = top = int(sizes.max_depth)
        rest = n - sizes.n_roots

        def column(length: int, dtype=np.int32) -> np.ndarray:
            array = np.empty(length, dtype=dtype)
            keep.append(ffi.from_buffer(_CTYPES[dtype], array))
            return array

        #: Nodes by depth (stable), the parent of ``order[n_roots:]`` and
        #: its group among its depth's distinct parents (``groups``,
        #: depth-major), and where each depth starts in ``order``
        #: (``level_start``) and in ``groups`` (``group_start``): what the
        #: compiled Elmore passes read.
        self.level_tables = (
            column(n, np.int64), column(rest), column(rest),
            column(sizes.n_groups), column(top + 2, np.int64),
            column(top + 1, np.int64),
        )
        #: The node of each pin (-1 off the forest).
        self.pin_node = column(self.n_pins_total, np.int64)
        #: Parent of each node, a root being its own: edge quantities are
        #: whole-array expressions in ``v`` and ``up[v]`` that come out
        #: exactly zero at the roots.
        self.up = column(n)
        #: Nodes that are pins, ascending, and the pin each of them is;
        #: root nodes that are pins (drivers), and those pins.
        self.pin_nodes, self.pins_of_nodes = column(sizes.n_pin_nodes), column(sizes.n_pin_nodes)
        self.driver_nodes, self.driver_pins = column(sizes.n_drivers), column(sizes.n_drivers)
        tables = ffi.new("forest_tables_t *")
        (
            tables.order, tables.parent, tables.group_of, tables.groups,
            tables.level_start, tables.group_start, tables.pin_node, tables.up,
            tables.pin_nodes, tables.pins_of_nodes, tables.driver_nodes,
            tables.driver_pins,
        ) = keep[3:]
        lib.forest_tables(nodes, sizes, ffi.from_buffer("int32_t[]", group), tables)
        #: The forest as the compiled passes read it (built on first use).
        self.kernel_view = None
        #: (pin_cap, extra_pin_cap, caps) of the last ``design_elmore``.
        self.caps_cache = None

    @property
    def statics_nbytes(self) -> int:
        """Bytes of the int32 tables ``_finalize`` lays out for the
        timers."""
        _, parent, group_of, groups, _, _ = self.level_tables
        tables = [
            self.up, self.pin_nodes, self.pins_of_nodes, self.driver_nodes,
            self.driver_pins, parent, group_of, groups,
        ]
        return sum(t.nbytes for t in tables)

    def tree(
        self, net: int, pin_x: np.ndarray, pin_y: np.ndarray
    ) -> Optional[RoutingTree]:
        """Materialise net ``net``'s tree at the given pin coordinates."""
        lo, hi = int(self.node_offset[net]), int(self.node_offset[net + 1])
        if lo == hi:
            return None
        parent = self.parent[lo:hi]
        return RoutingTree(
            x=pin_x[self.owner_x_pin[lo:hi]],
            y=pin_y[self.owner_y_pin[lo:hi]],
            parent=np.where(parent >= 0, parent - lo, -1),
            pins=self.node_pin[lo:hi].copy(),
            owner_x=self.pin_node[self.owner_x_pin[lo:hi]] - lo,
            owner_y=self.pin_node[self.owner_y_pin[lo:hi]] - lo,
            root=int(np.argmax(self.is_root[lo:hi])),
        )

    def trees(
        self, pin_x: np.ndarray, pin_y: np.ndarray
    ) -> List[Optional[RoutingTree]]:
        """Every net's tree view (``None`` for unrouted nets)."""
        return [self.tree(ni, pin_x, pin_y) for ni in range(self.n_nets)]

    def node_coords(
        self, pin_x: np.ndarray, pin_y: np.ndarray
    ) -> tuple:
        """Node coordinates given current global pin coordinates.

        Pin nodes sit at their pin; Steiner nodes copy x/y from their owner
        pins (the Figure 4 update rule used during tree reuse).
        """
        x = pin_x[self.owner_x_pin]
        y = pin_y[self.owner_y_pin]
        return x, y

    def edge_lengths(self, node_x: np.ndarray, node_y: np.ndarray) -> np.ndarray:
        """Rectilinear edge length to parent per node (0 for roots)."""
        up = self.up
        return np.abs(node_x - node_x[up]) + np.abs(node_y - node_y[up])

    def total_wirelength(self, pin_x: np.ndarray, pin_y: np.ndarray) -> float:
        """Total Steiner wirelength over all routed nets."""
        x, y = self.node_coords(pin_x, pin_y)
        return float(self.edge_lengths(x, y).sum())
