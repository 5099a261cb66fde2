"""Unit tests for the flattened routing Forest."""

import numpy as np
import pytest

from repro.route import (
    Forest,
    build_forest,
    build_trees,
)
from tests.reference_rsmt import build_rsmt, reference_forest
from tests.test_rsmt_batch import _trees_identical, assert_forests_equal


@pytest.fixture()
def small_forest(small_design, spread_positions):
    x, y = spread_positions
    return build_forest(small_design, x, y), (x, y)


class TestConstruction:
    def test_clock_and_degenerate_nets_skipped(self, small_design, spread_positions):
        x, y = spread_positions
        trees = build_trees(small_design, x, y)
        assert len(trees) == small_design.n_nets
        for ni, tree in enumerate(trees):
            if small_design.net_is_clock[ni]:
                assert tree is None

    def test_include_clock_flag(self, small_design, spread_positions):
        x, y = spread_positions
        trees = build_trees(small_design, x, y, include_clock=True)
        clock_net = int(np.nonzero(small_design.net_is_clock)[0][0])
        assert trees[clock_net] is not None

    def test_levels_partition_nodes(self, small_forest):
        forest, _ = small_forest
        order, _, _, _, level_start, _ = forest.level_tables
        assert level_start[0] == 0 and level_start[-1] == forest.n_nodes
        assert (np.diff(level_start) >= 0).all()
        assert np.array_equal(np.sort(order), np.arange(forest.n_nodes))

    def test_roots_at_level_zero(self, small_forest):
        forest, _ = small_forest
        roots = np.nonzero(forest.is_root)[0]
        assert (forest.depth[roots] == 0).all()
        assert (forest.parent[roots] == -1).all()

    def test_pin_node_mapping_bijective_on_routed_pins(self, small_forest):
        forest, _ = small_forest
        mapped = forest.pin_node[forest.pin_node >= 0]
        assert len(np.unique(mapped)) == len(mapped)
        pins = forest.node_pin[mapped]
        assert (forest.pin_node[pins] == mapped).all()


class TestTreeViews:
    def test_tree_round_trips_to_the_reference(self, small_design, spread_positions):
        """forest.tree(ni) == build_rsmt of that net, and is a valid tree."""
        x, y = spread_positions
        design = small_design
        forest = build_forest(design, x, y)
        px, py = design.pin_positions(x, y)
        n_views = 0
        for ni in range(design.n_nets):
            tree = forest.tree(ni, px, py)
            pins = design.net_pins(ni)
            driver = design.net_driver[ni]
            if len(pins) < 2 or driver < 0 or design.net_is_clock[ni]:
                assert tree is None
                continue
            local = int(np.nonzero(pins == driver)[0][0])
            ref = build_rsmt(px[pins], py[pins], pins, driver_local=local)
            assert _trees_identical(tree, ref)
            tree.validate()
            n_views += 1
        assert n_views == int((np.diff(forest.node_offset) > 0).sum())

    def test_views_reflatten_to_the_same_forest(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        again = Forest(forest.trees(px, py), small_design.n_pins)
        assert_forests_equal(forest, again)


class TestCoordinates:
    def test_node_coords_match_trees(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        for ni, tree in enumerate(forest.trees(px, py)):
            if tree is None:
                continue
            base = forest.node_offset[ni]
            np.testing.assert_allclose(nx[base : base + tree.n_nodes], tree.x)
            np.testing.assert_allclose(ny[base : base + tree.n_nodes], tree.y)

    def test_steiner_points_track_owner_pins(self, small_design, spread_positions):
        """The Figure 4 reuse rule: move a pin, its Steiner points follow."""
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx0, ny0 = forest.node_coords(px, py)
        # Shift every pin by a constant: all nodes shift identically.
        nx1, ny1 = forest.node_coords(px + 2.5, py - 1.0)
        np.testing.assert_allclose(nx1 - nx0, 2.5)
        np.testing.assert_allclose(ny1 - ny0, -1.0)

    def test_total_wirelength_positive(self, small_forest, small_design):
        forest, (x, y) = small_forest
        px, py = small_design.pin_positions(x, y)
        assert forest.total_wirelength(px, py) > 0


class TestGradientScatter:
    def test_scatter_is_adjoint_of_gather(self, small_forest, small_design):
        """<g_node, d node/d pin * v> == <scatter(g_node), v> for random v,
        for the Steiner-owner scatter the compiled backward pass is held
        to (``tests/reference_timer.py``)."""
        from tests.reference_timer import scatter_coord_grad

        forest, (x, y) = small_forest
        design = small_design
        rng = np.random.default_rng(0)
        g_nx = rng.normal(size=forest.n_nodes)
        g_ny = rng.normal(size=forest.n_nodes)
        v_px = rng.normal(size=design.n_pins)
        v_py = rng.normal(size=design.n_pins)

        g_px, g_py = scatter_coord_grad(forest, g_nx, g_ny)
        lhs = float(g_px @ v_px + g_py @ v_py)
        # Forward directional derivative: node coords are pure gathers.
        d_nx = v_px[forest.owner_x_pin]
        d_ny = v_py[forest.owner_y_pin]
        rhs = float(g_nx @ d_nx + g_ny @ d_ny)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_edge_lengths_zero_for_roots(self, small_forest, small_design):
        forest, (x, y) = small_forest
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        lengths = forest.edge_lengths(nx, ny)
        roots = np.nonzero(forest.is_root)[0]
        assert (lengths[roots] == 0).all()
        assert (lengths >= 0).all()
