"""The per-forest tables of the Elmore kernels.

``Forest._finalize`` lays out, once per forest and in one compiled pass
(``forest_sizes`` + ``forest_tables`` of ``rsmt.c``), the integer tables
the Elmore passes of every timer call index with (nodes by depth, their
parents and compact parent groups, parent-or-self pointers, pin and
driver nodes).  Every table is held, dtype included, to the NumPy
``_finalize`` kept in ``tests/reference_rsmt.py``; the kernels on them are
held, bit for bit, to a per-tree Python reference that walks one node at
a time; and both ways of building a forest - explicit trees, the compiled
builder's rows - must lay out the same tables.
"""

import numpy as np
import pytest

from repro.core.elmore_grad import elmore_backward
from repro.harness.suite import SUITE, load_design
from repro.route import (
    Forest,
    RoutePlan,
    RoutingTree,
    build_forest,
    build_forest_from_plan,
)
from repro.sta.elmore import elmore_forward, node_caps
from tests.reference_rsmt import TABLES, assert_tables_match, build_rsmt


def assert_same_statics(a, b):
    for name in TABLES:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.max_depth == b.max_depth
    for x, y in zip(a.level_tables, b.level_tables):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def level_lists(forest):
    """Per depth: the nodes, their parents, their parents' groups and the
    groups (distinct parents), as slices of ``level_tables``."""
    order, parent, group_of, groups, level_start, group_start = forest.level_tables
    roots = level_start[1]
    lists = []
    for depth in range(forest.max_depth + 1):
        a, b = level_start[depth : depth + 2]
        if depth == 0:
            lists.append((order[a:b], parent[:0], group_of[:0], groups[:0]))
            continue
        lo, hi = group_start[depth - 1 : depth + 1]
        lists.append((
            order[a:b], parent[a - roots : b - roots],
            group_of[a - roots : b - roots], groups[lo:hi],
        ))
    return lists


# ----------------------------------------------------------------------
# Per-tree reference: one node at a time, children folded in ascending
# node order from 0.0 (the order of a bincount over a level), adjoint
# sums folded into the parent one child at a time (the order of add.at).
# ----------------------------------------------------------------------
def _tree_order(parent):
    n = len(parent)
    depth = np.zeros(n, dtype=int)
    for v in range(n):
        u = v
        while parent[u] >= 0:
            u = parent[u]
            depth[v] += 1
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    top_down = sorted(range(n), key=lambda v: (depth[v], v))
    return depth, children, top_down


def tree_elmore_reference(parent, x, y, caps, wire):
    n = len(parent)
    depth, children, top_down = _tree_order(parent)
    length = np.zeros(n)
    for v in range(n):
        if parent[v] >= 0:
            length[v] = abs(x[v] - x[parent[v]]) + abs(y[v] - y[parent[v]])
    res = wire.res_per_um * length
    half = 0.5 * wire.cap_per_um * length
    cap = np.zeros(n)
    for v in range(n):
        acc = 0.0
        for c in children[v]:
            acc += half[c]
        cap[v] = (caps[v] + half[v]) + acc

    def bottom_up(values):
        for v in reversed(top_down):
            if children[v]:
                acc = 0.0
                for c in children[v]:
                    acc += values[c]
                values[v] = values[v] + acc

    load = cap.copy()
    bottom_up(load)
    delay = np.zeros(n)
    for v in top_down:
        if parent[v] >= 0:
            delay[v] = delay[parent[v]] + res[v] * load[v]
    ldelay = cap * delay
    bottom_up(ldelay)
    beta = np.zeros(n)
    for v in top_down:
        if parent[v] >= 0:
            beta[v] = beta[parent[v]] + res[v] * ldelay[v]
    return dict(edge_res=res, cap=cap, load=load, delay=delay, ldelay=ldelay, beta=beta)


def tree_elmore_backward_reference(parent, x, y, fwd, wire, g_delay, g_imp2, g_load):
    n = len(parent)
    depth, children, top_down = _tree_order(parent)
    bottom_up = [v for v in reversed(top_down)]
    # Deepest level first, ascending node id inside a level.
    bottom_up.sort(key=lambda v: (-depth[v], v))
    g_beta = 2.0 * g_imp2
    g_delay = g_delay - 2.0 * fwd["delay"] * g_imp2
    g_ldelay, g_cap, g_res = np.zeros(n), np.zeros(n), np.zeros(n)
    g_load = g_load.copy()
    for v in bottom_up:
        if parent[v] >= 0:
            g_ldelay[v] += fwd["edge_res"][v] * g_beta[v]
            g_res[v] += fwd["ldelay"][v] * g_beta[v]
            g_beta[parent[v]] += g_beta[v]
    for v in top_down:
        if parent[v] >= 0:
            g_ldelay[v] += g_ldelay[parent[v]]
        g_cap[v] += fwd["delay"][v] * g_ldelay[v]
        g_delay[v] += fwd["cap"][v] * g_ldelay[v]
    for v in bottom_up:
        if parent[v] >= 0:
            g_res[v] += fwd["load"][v] * g_delay[v]
            g_load[v] += fwd["edge_res"][v] * g_delay[v]
            g_delay[parent[v]] += g_delay[v]
    for v in top_down:
        if parent[v] >= 0:
            g_load[v] += g_load[parent[v]]
        g_cap[v] += g_load[v]
    g_x, g_y = np.zeros(n), np.zeros(n)
    contrib = []
    for v in range(n):
        if parent[v] < 0:
            contrib.append((0.0, 0.0))
            continue
        p = parent[v]
        g_len = wire.res_per_um * g_res[v]
        g_len += 0.5 * wire.cap_per_um * (g_cap[v] + g_cap[p])
        contrib.append((np.sign(x[v] - x[p]) * g_len, np.sign(y[v] - y[p]) * g_len))
        g_x[v], g_y[v] = contrib[v]
    for v in range(n):
        if parent[v] >= 0:
            g_x[parent[v]] += -contrib[v][0]
            g_y[parent[v]] += -contrib[v][1]
    return g_x, g_y


def assert_kernels_match_per_tree_reference(forest, node_x, node_y, caps, wire, seed=0):
    rng = np.random.default_rng(seed)
    elm = elmore_forward(forest, node_x, node_y, caps, wire)
    g_delay = rng.normal(size=forest.n_nodes)
    g_imp2 = rng.normal(scale=0.1, size=forest.n_nodes)
    g_load = np.where(forest.is_root, rng.normal(size=forest.n_nodes), 0.0)
    g_x, g_y = elmore_backward(forest, elm, wire, g_delay, g_imp2, g_load)
    # Two objectives at once are two independent rows.
    two = elmore_backward(
        forest, elm, wire,
        np.stack([g_delay, 2.0 * g_delay]), np.stack([g_imp2, -g_imp2]),
        np.stack([g_load, g_load]),
    )
    assert np.array_equal(two[0][0], g_x) and np.array_equal(two[1][0], g_y)
    other = elmore_backward(forest, elm, wire, 2.0 * g_delay, -g_imp2, g_load)
    assert np.array_equal(two[0][1], other[0]) and np.array_equal(two[1][1], other[1])

    checked = 0
    for net in range(forest.n_nets):
        lo, hi = int(forest.node_offset[net]), int(forest.node_offset[net + 1])
        if lo == hi:
            continue
        parent = np.where(forest.parent[lo:hi] >= 0, forest.parent[lo:hi] - lo, -1)
        x, y = node_x[lo:hi], node_y[lo:hi]
        fwd = tree_elmore_reference(parent, x, y, caps[lo:hi], wire)
        for name, want in fwd.items():
            assert np.array_equal(getattr(elm, name)[lo:hi], want), (net, name)
        ref_x, ref_y = tree_elmore_backward_reference(
            parent, x, y, fwd, wire, g_delay[lo:hi], g_imp2[lo:hi], g_load[lo:hi]
        )
        assert np.array_equal(g_x[lo:hi], ref_x), net
        assert np.array_equal(g_y[lo:hi], ref_y), net
        checked += 1
    assert checked


class TestKernelsAgainstPerTreeReference:
    def test_design_forest(self, small_design, spread_positions):
        design = small_design
        x, y = spread_positions
        forest = build_forest(design, x, y)
        # The forest reused (Figure 4) after the cells have moved on.
        rng = np.random.default_rng(2)
        px, py = design.pin_positions(
            x + rng.normal(0, 9, design.n_cells), y + rng.normal(0, 9, design.n_cells)
        )
        node_x, node_y = forest.node_coords(px, py)
        caps = node_caps(forest, design.pin_cap)
        assert_kernels_match_per_tree_reference(
            forest, node_x, node_y, caps, design.library.wire
        )

    def test_degree_104_net_and_a_star(self, library):
        """A plain-MST net of 104 pins (a deep tree: many thin levels) next
        to a star (one parent, dozens of children): the compact per-parent
        sums fold children in the order the reference does."""
        rng = np.random.default_rng(104)
        n, m = 104, 40
        px, py = rng.uniform(0, 400, n + m), rng.uniform(0, 300, n + m)
        deep = build_rsmt(px[:n], py[:n], np.arange(n), driver_local=17)
        star = RoutingTree(
            x=px[n:], y=py[n:], parent=np.where(np.arange(m) == 3, -1, 3),
            pins=np.arange(n, n + m), owner_x=np.arange(m), owner_y=np.arange(m),
            root=3,
        )
        forest = Forest([None, deep, star], n + m)
        assert forest.max_depth >= 10
        assert len(level_lists(forest)[1][3]) == 2  # the two roots
        node_x, node_y = forest.node_coords(px, py)
        caps = node_caps(forest, rng.uniform(0.5, 3.0, n + m))
        assert_kernels_match_per_tree_reference(
            forest, node_x, node_y, caps, library.wire, seed=5
        )


class TestStaticsAreTheSameHoweverBuilt:
    def test_trees_and_rows(self, small_design, spread_positions):
        design = small_design
        x, y = spread_positions
        px, py = design.pin_positions(x, y)
        from_rows = build_forest(design, x, y)
        from_trees = Forest(from_rows.trees(px, py), design.n_pins)
        assert_same_statics(from_rows, from_trees)

    def test_groups_name_each_levels_distinct_parents(self, small_design, spread_positions):
        forest = build_forest(small_design, *spread_positions)
        levels = level_lists(forest)
        assert len(levels[0][0]) and not len(levels[0][1])
        for level, parents, group_of, groups in levels[1:]:
            assert np.array_equal(parents, forest.parent[level])
            assert np.array_equal(groups, np.unique(parents))
            assert np.array_equal(groups[group_of], parents)
        roots = np.flatnonzero(forest.is_root)
        assert np.array_equal(forest.up[roots], roots)
        has_parent = forest.parent >= 0
        assert np.array_equal(forest.up[has_parent], forest.parent[has_parent])

    def test_empty_and_single_level_forests(self, library):
        empty = Forest([None, None], 4)
        assert empty.n_nodes == 0 and len(level_lists(empty)) == 1
        assert list(empty.level_tables[4]) == [0, 0]
        assert empty.statics_nbytes == 0
        assert_tables_match(empty)
        # Backward over no nodes: nothing to index, nothing returned.
        wire = library.wire
        elm = elmore_forward(empty, np.zeros(0), np.zeros(0), np.zeros(0), wire)
        for shape in ((0,), (2, 0)):
            g = np.zeros(shape)
            g_x, g_y = elmore_backward(empty, elm, wire, g, g, g)
            assert g_x.shape == g_y.shape == shape

    def test_level_tables(self, small_design, spread_positions):
        """The flat ``level_tables`` the compiled passes read, cut at
        ``level_start`` / ``group_start``, are the per-level lists the
        NumPy oracle lays out."""
        forest = build_forest(small_design, *spread_positions)
        order, parent, group_of, groups, level_start, group_start = forest.level_tables
        assert len(level_start) == forest.max_depth + 2
        assert len(group_start) == forest.max_depth + 1
        want = assert_tables_match(forest)
        for depth, lists in enumerate(level_lists(forest)):
            for got, ref in zip(lists, (
                want.levels[depth], want.level_parent[depth],
                want.level_group_of[depth], want.level_groups[depth],
            )):
                assert got.dtype == ref.dtype and np.array_equal(got, ref), depth


class TestTablesAgainstOracle:
    """Every table of the compiled pass, dtype included, equals the NumPy
    ``_finalize`` it replaced, however the forest was built."""

    @pytest.mark.parametrize("name", [entry.name for entry in SUITE])
    def test_suite_design_forests(self, name):
        design = load_design(name)
        assert_tables_match(build_forest(design))
        rng = np.random.default_rng(3)
        xl, yl, xh, yh = design.die
        assert_tables_match(build_forest(
            design, rng.uniform(xl, xh, design.n_cells), rng.uniform(yl, yh, design.n_cells)
        ))

    def test_midiblue50_forest(self):
        design = load_design("midiblue50")
        forest = build_forest(design)
        assert forest.n_nodes > 100_000
        assert_tables_match(forest)

    def test_explicit_trees(self, small_design, spread_positions):
        px, py = small_design.pin_positions(*spread_positions)
        rows = build_forest(small_design, *spread_positions)
        assert_tables_match(Forest(rows.trees(px, py), small_design.n_pins))

    def test_clock_forest(self, small_design, spread_positions):
        px, py = small_design.pin_positions(*spread_positions)
        plan = RoutePlan(small_design, small_design.net_is_clock)
        forest = build_forest_from_plan(plan, px, py)
        assert forest.n_nodes > 2
        assert_tables_match(forest)

    def test_empty_forest(self):
        assert_tables_match(Forest([None, None, None], 5))

    def test_out_of_range_node_raises(self):
        tree = RoutingTree(
            x=np.zeros(3), y=np.zeros(3), parent=np.array([-1, 0, 1]),
            pins=np.array([0, 1, 2]), owner_x=np.arange(3), owner_y=np.arange(3),
            root=0,
        )
        Forest([tree], 3)
        with pytest.raises(ValueError, match="forest node 2"):
            Forest([tree], 2)  # pin 2 of a design of two pins

    def test_rows_out_of_order_or_range_raise(self):
        """``from_rows`` checks the rows before it indexes with them."""
        one = np.arange(2, dtype=np.int64)

        def rows(net, parent):
            size = np.array([2] * len(net), dtype=np.int64)
            return Forest.from_rows(
                3, 6, np.array(net, dtype=np.int64), size,
                np.array(parent, dtype=np.int64), np.tile(one, len(net)),
                np.tile(one, len(net)), np.tile(one, len(net)),
                np.tile([True, False], len(net)), np.tile([0, 1], len(net)),
            )

        forest = rows([0, 2], [-1, 0, -1, 0])
        assert list(forest.node_offset) == [0, 2, 2, 4]
        assert list(forest.parent) == [-1, 0, -1, 2]
        for net, parent, match in (
            ([2, 0], [-1, 0, -1, 0], "forest row 1"),
            ([1, 1], [-1, 0, -1, 0], "forest row 1"),
            ([0, 3], [-1, 0, -1, 0], "forest row 1"),
            ([0, 2], [-1, 0, -1, 2], "forest node 3"),
            ([0, 2], [-1, 0, -1], "forest row 1"),
            ([0, 2], [-1, 0, -1, 0, 0], "forest row 2"),
        ):
            with pytest.raises(ValueError, match=match):
                rows(net, parent)
