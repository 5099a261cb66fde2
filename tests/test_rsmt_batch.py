"""Equivalence tests: the compiled Steiner-forest builder vs the scalar oracle.

``rsmt.c`` must write a flat ``Forest`` whose every array (dtypes
included) equals flattening per-net ``build_rsmt`` trees from
``tests/reference_rsmt.py`` (same node order, same parents, same
coordinate owners), because checkpoint restoration replays construction
from coordinates alone.  The forest policy itself is pinned here too:
Steiner search up to ``MAX_STEINER_DEGREE`` (degree 4-8), plain RMST above.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.suite import SUITE, load_design
from repro.route import MAX_STEINER_DEGREE, route_plan
from repro.route.rsmt import build_forest, build_forest_for_nets, build_trees
from tests.reference_rsmt import (
    _iterated_one_steiner,
    _prim_edges,
    _prune_leaf_steiners,
    reference_forest,
    rmst_length,
)

FOREST_ARRAYS = (
    "parent",
    "node_pin",
    "owner_x_pin",
    "owner_y_pin",
    "is_root",
    "depth",
    "node_offset",
    "pin_node",
)


def assert_forests_equal(a, b):
    for attr in FOREST_ARRAYS:
        left, right = getattr(a, attr), getattr(b, attr)
        assert left.dtype == right.dtype, attr
        assert np.array_equal(left, right), attr
    assert a.n_nodes == b.n_nodes and a.max_depth == b.max_depth
    assert len(a.level_tables) == len(b.level_tables)
    for la, lb in zip(a.level_tables, b.level_tables):
        assert la.dtype == lb.dtype and np.array_equal(la, lb)


def _trees_identical(a, b) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.y, b.y)
        and np.array_equal(a.parent, b.parent)
        and np.array_equal(a.pins, b.pins)
        and np.array_equal(a.owner_x, b.owner_x)
        and np.array_equal(a.owner_y, b.owner_y)
        and a.root == b.root
    )


def netlist(nets):
    """A design stand-in (just the arrays the route plan reads) whose net
    ``k`` has the pins of ``nets[k] = (x, y, driver_local)``."""
    degrees = np.array([len(n[0]) for n in nets], dtype=np.int64)
    start = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    design = SimpleNamespace(
        n_nets=len(nets),
        n_pins=int(start[-1]),
        net_degrees=degrees,
        net2pin_start=start,
        net2pin=np.arange(start[-1], dtype=np.int64),
        net_driver=start[:-1] + np.array([n[2] for n in nets], dtype=np.int64),
        net_is_clock=np.zeros(len(nets), dtype=bool),
    )
    px = np.concatenate([np.asarray(n[0], dtype=float) for n in nets])
    py = np.concatenate([np.asarray(n[1], dtype=float) for n in nets])
    return design, px, py


def check_nets(nets):
    design, px, py = netlist(nets)
    forest = build_forest_for_nets(design, px, py)
    assert_forests_equal(forest, reference_forest(design, px, py))
    return forest, design, px, py


def _random_nets(rng, n_nets, degree, coord_pool=None):
    """Random nets of one degree; small int coords force ties/duplicates."""
    nets = []
    for _ in range(n_nets):
        if coord_pool is not None:
            x = rng.choice(coord_pool, degree).astype(float)
            y = rng.choice(coord_pool, degree).astype(float)
        else:
            x = rng.integers(0, 40, degree).astype(float)
            y = rng.integers(0, 40, degree).astype(float)
        nets.append((x, y, int(rng.integers(0, degree))))
    return nets


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
class TestBucketEquivalence:
    """Each degree of the Steiner-searched range and below, on its own."""

    def test_random_nets_bit_identical(self, degree):
        rng = np.random.default_rng(100 + degree)
        forest, _, px, py = check_nets(_random_nets(rng, 40, degree))
        for tree in forest.trees(px, py):
            tree.validate()

    def test_duplicate_and_collinear_pins_bit_identical(self, degree):
        # A 3-value coordinate pool makes duplicate points, collinear
        # runs and argmin ties the rule rather than the exception.
        rng = np.random.default_rng(200 + degree)
        check_nets(_random_nets(rng, 40, degree, coord_pool=np.array([0.0, 4.0, 9.0])))


class TestLargeDegrees:
    """Every net above MAX_STEINER_DEGREE is a plain RMST."""

    @staticmethod
    def assert_plain_rmst(nets):
        """Compiled == scalar, no Steiner node, and every tree's length is
        the scalar Prim's total bit for bit (the coordinates below are
        multiples of 1/4, so the sums are exact in any order)."""
        forest, design, px, py = check_nets(nets)
        assert (forest.node_pin >= 0).all()
        for ni, tree in enumerate(forest.trees(px, py)):
            lo, hi = design.net2pin_start[ni], design.net2pin_start[ni + 1]
            assert tree.n_nodes == hi - lo
            assert tree.wirelength() == _prim_edges(px[lo:hi], py[lo:hi])[1]

    @pytest.mark.parametrize("degree", [9, 12, 19, 24, 37])
    def test_padded_degrees_are_plain_rmst(self, degree):
        rng = np.random.default_rng(degree)
        nets = _random_nets(rng, 3, degree)
        nets += _random_nets(rng, 2, degree, coord_pool=np.arange(1200) * 0.25)
        # Few distinct coordinates: duplicate pins and argmin ties.
        nets += _random_nets(rng, 2, degree, coord_pool=np.array([0.0, 3.0, 7.0, 12.0]))
        self.assert_plain_rmst(nets)

    def test_big_net_mst_path(self):
        rng = np.random.default_rng(33)
        nets = _random_nets(rng, 4, 30) + _random_nets(rng, 2, 27)
        forest, design, _, _ = check_nets(nets)
        # > MAX_STEINER_DEGREE: plain MST, no Steiner points inserted.
        assert np.array_equal(np.diff(forest.node_offset), design.net_degrees)


@st.composite
def net_mixes(draw):
    """Net mixes over every degree class, on a coarse grid (coincident
    and collinear pins, ties), on a few inexact values or on floats,
    driver at any local index."""
    nets = []
    for _ in range(draw(st.integers(1, 8))):
        degree = draw(st.one_of(st.integers(2, 8), st.integers(9, 40)))
        kind = draw(st.sampled_from(["grid", "pool", "float"]))
        if kind == "grid":
            coord = st.integers(0, draw(st.integers(1, 12))).map(float)
        elif kind == "pool":
            # Few values whose sums round: tied keys, order-sensitive sums.
            coord = st.sampled_from([0.1, 0.3, 0.7, 1.1, 1.9, 3.3, 5.7])
        else:
            coord = st.floats(0.0, 500.0, allow_nan=False, width=64)
        x = draw(st.lists(coord, min_size=degree, max_size=degree))
        y = draw(st.lists(coord, min_size=degree, max_size=degree))
        nets.append((x, y, draw(st.integers(0, degree - 1))))
    return nets


@st.composite
def grid_nets(draw):
    """One net of degree 2-40 on a coarse integer grid, in one of four
    shapes: scattered (Hanan candidates on pins, coincident pins), all
    pins on one point, all on a horizontal or on a vertical line."""
    degree = draw(st.integers(2, 40))
    side = draw(st.integers(1, 5))
    coord = st.integers(0, side).map(float)
    x = draw(st.lists(coord, min_size=degree, max_size=degree))
    y = draw(st.lists(coord, min_size=degree, max_size=degree))
    shape = draw(st.sampled_from(["scatter", "point", "row", "column"]))
    if shape in ("point", "row"):
        y = [y[0]] * degree
    if shape in ("point", "column"):
        x = [x[0]] * degree
    return x, y, draw(st.integers(0, degree - 1))


class TestNetMixes:
    @given(net_mixes())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forest_equals_reference(self, nets):
        check_nets(nets)

    @given(st.lists(grid_nets(), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_grid_nets_equal_reference(self, nets):
        check_nets(nets)

    @given(
        st.integers(4, MAX_STEINER_DEGREE).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(0, 6) | st.integers(0, 400)] * 2),
                min_size=d,
                max_size=d,
            )
        )
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_steiner_buckets_never_longer_than_rmst(self, points):
        # Coordinates from a 7-value pool (duplicate and collinear pins)
        # mixed with a wide one; integers keep every sum exact.
        x, y = np.array(points, dtype=float).T
        forest, _, px, py = check_nets([(x, y, 0)])
        assert forest.total_wirelength(px, py) <= rmst_length(x, y)

    @pytest.mark.parametrize("degree", [4, 5, 6, 8, 9, 12])
    def test_every_driver_index_and_insert_count(self, degree):
        # The driver at every local index, over nets whose 1-Steiner pass
        # inserts nothing (collinear pins) up to the full degree - 2
        # (integer-grid nets reach every count for the small degrees;
        # degrees 9 and 12 insert nothing at all).
        rng = np.random.default_rng(degree)
        nets = [(np.arange(degree) * 3.0, np.zeros(degree), 0)]
        nets += _random_nets(rng, 400, degree, coord_pool=np.arange(25.0))
        nets = [(x, y, k % degree) for k, (x, y, _) in enumerate(nets)]
        forest, design, _, _ = check_nets(nets)
        inserted = np.diff(forest.node_offset) - design.net_degrees
        if degree > MAX_STEINER_DEGREE:
            assert not inserted.any()
        else:
            top = degree - 2 if degree <= 6 else degree // 2
            assert set(range(top + 1)) <= set(inserted.tolist())

    def test_hanan_candidates_on_pins_and_degenerate_nets(self):
        # Pins on a 2x3 and a 2x4 grid: every Hanan candidate is a pin, so
        # nothing is inserted; a plus sign whose centre is the one useful
        # candidate; all pins on one point; a degree-3 median on a pin.
        # The driver in every lane of each.
        nets = []
        for rows in (3, 4):
            grid = np.array([(i, 2 * j) for i in range(2) for j in range(rows)], float)
            nets += [(grid[:, 0], grid[:, 1], k) for k in range(len(grid))]
        plus = np.array([(1, 0), (0, 1), (2, 1), (1, 2)], float)
        nets += [(plus[:, 0], plus[:, 1], k) for k in range(4)]
        nets += [(np.full(d, 5.0), np.full(d, 2.0), d - 1) for d in (2, 3, 4, 8, 9)]
        nets += [([0.0, 1.0, 4.0], [0.0, 1.0, 4.0], k) for k in range(3)]
        forest, design, _, _ = check_nets(nets)
        inserted = np.diff(forest.node_offset) - design.net_degrees
        assert inserted.tolist() == [0] * 14 + [1] * 4 + [0] * 8

    def test_steiner_point_left_a_leaf_is_peeled(self):
        # Nets where a later insertion leaves an earlier Steiner point a
        # leaf of the final MST (rare: two in millions of random nets),
        # the driver in every lane.
        peeling = [
            [(48, 8), (18, 39), (30, 36), (29, 47), (8, 48), (7, 36), (40, 11), (20, 22)],
            [
                (254.565431, 1467.2712), (2050.619095, 518.776846),
                (1470.522378, 1767.272507), (1448.166526, 555.474702),
                (1787.952813, 1397.708143), (2067.613468, 2008.866612),
                (524.428682, 79.573714),
            ],
        ]
        nets = []
        for points in peeling:
            x, y = np.array(points, dtype=float).T
            xs, _, _ = _iterated_one_steiner(x, y)
            nets += [(x, y, k) for k in range(len(x))]
            forest, design, _, _ = check_nets([(x, y, 0)])
            assert forest.n_nodes < len(xs)  # some inserted point is gone
        check_nets(nets)

    def test_candidate_tied_with_a_node_key(self):
        # A candidate whose key ties the least node key is picked after
        # the node (a lower index), and the sums of these inexact values
        # depend on that order.  The driver in every lane.
        points = [
            (0.6, 0.7), (0.2, 0.30000000000000004),
            (0.8999999999999999, 0.8999999999999999), (1.1, 2.2),
            (2.2, 0.8999999999999999), (2.2, 0.2),
            (0.30000000000000004, 3.3000000000000003), (1.1, 2.2),
        ]
        x, y = np.array(points).T
        check_nets([(x, y, k) for k in range(len(x))])

    def test_unroutable_nets_get_no_tree(self):
        nets = _random_nets(np.random.default_rng(5), 5, 4)
        design, px, py = netlist(nets)
        design.net_driver[1] = -1  # undriven
        design.net_is_clock[3] = True
        forest = build_forest_for_nets(design, px, py)
        assert_forests_equal(forest, reference_forest(design, px, py))
        assert forest.tree(1, px, py) is None and forest.tree(3, px, py) is None
        with_clock = build_forest_for_nets(design, px, py, include_clock=True)
        assert_forests_equal(
            with_clock, reference_forest(design, px, py, include_clock=True)
        )

    def test_no_routable_net_is_an_empty_forest(self):
        design, px, py = netlist(_random_nets(np.random.default_rng(6), 3, 5))
        design.net_driver[:] = -1
        assert_forests_equal(
            build_forest_for_nets(design, px, py), reference_forest(design, px, py)
        )


class TestNonFinitePins:
    """A non-finite coordinate on a routed pin is one ValueError, raised
    before any net is routed; pins of unrouted nets are never read.  So
    are coordinates that are not one value per pin."""

    NETS = [
        ([0.0, 3.0], [1.0, 2.0], 1),
        ([0.0, 3.0, 1.0], [1.0, 2.0, 5.0], 2),
        ([0.0, 3.0, 1.0, 4.0, 2.0], [1.0, 2.0, 5.0, 0.0, 3.0], 0),
        (list(np.arange(12.0)), list(np.arange(12.0)[::-1]), 4),
    ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_routed_pin_raises(self, bad):
        design, px, py = netlist(self.NETS)
        for pin in range(design.n_pins):
            net = int(np.searchsorted(design.net2pin_start, pin, side="right")) - 1
            for axis in (0, 1):
                coords = [px.copy(), py.copy()]
                coords[axis][pin] = bad
                with pytest.raises(ValueError, match=f"net {net} "):
                    build_forest_for_nets(design, *coords)

    def test_coordinates_must_be_one_per_pin(self):
        design, px, py = netlist(self.NETS)
        with pytest.raises(ValueError, match="pins"):
            build_forest_for_nets(design, px[:-1], py[:-1])
        with pytest.raises(ValueError, match="pins"):
            build_forest_for_nets(design, px, py[:, None])

    def test_unrouted_pin_is_not_read(self):
        design, px, py = netlist(self.NETS)
        design.net_driver[2] = -1
        px[design.net2pin_start[2]] = np.nan
        assert_forests_equal(
            build_forest_for_nets(design, px, py), reference_forest(design, px, py)
        )


class TestDesignLevel:
    @pytest.mark.parametrize("name", [entry.name for entry in SUITE])
    def test_suite_design_forest_equals_reference(self, name):
        # At the design's seed placement and at a uniform scatter.
        design = load_design(name)
        rng = np.random.default_rng(3)
        xl, yl, xh, yh = design.die
        for x, y in (
            (design.cell_x, design.cell_y),
            (rng.uniform(xl, xh, design.n_cells), rng.uniform(yl, yh, design.n_cells)),
        ):
            px, py = design.pin_positions(x, y)
            assert_forests_equal(
                build_forest(design, x, y), reference_forest(design, px, py)
            )

    def test_midiblue50_sample_equals_reference(self):
        # Every net above degree 6 (the plain-MST degrees included) plus a
        # stride over the rest, the others masked out as undriven: the
        # forest of the masked view must equal its reference.  The whole
        # design is compared in benchmarks/test_rsmt_forest.py.
        design = load_design("midiblue50")
        rng = np.random.default_rng(4)
        xl, yl, xh, yh = design.die
        px, py = design.pin_positions(
            rng.uniform(xl, xh, design.n_cells), rng.uniform(yl, yh, design.n_cells)
        )
        degrees = design.net_degrees
        sample = np.union1d(
            np.nonzero(degrees > 6)[0], np.arange(0, design.n_nets, 40)
        )
        keep = np.zeros(design.n_nets, dtype=bool)
        keep[sample] = True
        masked = SimpleNamespace(
            n_nets=design.n_nets,
            n_pins=design.n_pins,
            net_degrees=degrees,
            net2pin_start=design.net2pin_start,
            net2pin=design.net2pin,
            net_driver=np.where(keep, design.net_driver, -1),
            net_is_clock=design.net_is_clock,
        )
        forest = build_forest_for_nets(masked, px, py)
        assert_forests_equal(forest, reference_forest(masked, px, py))
        assert (route_plan(masked).degree > MAX_STEINER_DEGREE).any()

    def test_build_trees_are_views_of_the_forest(self, small_design):
        rng = np.random.default_rng(77)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        px, py = small_design.pin_positions(x, y)
        trees = build_trees(small_design, x, y)
        reference = reference_forest(small_design, px, py)
        assert len(trees) == small_design.n_nets
        for ni, tree in enumerate(trees):
            ref = reference.tree(ni, px, py)
            if tree is None or ref is None:
                assert tree is None and ref is None
            else:
                assert _trees_identical(tree, ref)

    def test_tree_pins_do_not_alias_design_csr(self, small_design):
        for tree in build_trees(small_design):
            if tree is not None:
                assert not np.shares_memory(tree.pins, small_design.net2pin)

    def test_plan_is_cached_but_never_pickled(self, small_design):
        import pickle

        plan = route_plan(small_design)
        assert route_plan(small_design) is plan
        clone = pickle.loads(pickle.dumps(small_design))
        assert "_route_plan" not in clone.__dict__
        assert np.array_equal(route_plan(clone).net_ids, plan.net_ids)


class TestPruneLeafSteiners:
    """The oracle's leaf-Steiner peel."""

    def test_chain_of_dangling_steiners_peels(self):
        # 2 pins + 3 Steiner nodes hanging off pin 1 in a chain; every
        # Steiner has degree <= 1 after its child peels.
        xs = np.array([0.0, 10.0, 11.0, 12.0, 13.0])
        ys = np.zeros(5)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        rx, ry, redges, original = _prune_leaf_steiners(xs, ys, edges, 2)
        assert list(original) == [0, 1]
        assert redges.tolist() == [[0, 1]]

    def test_degree_stress_linear_scaling(self):
        # A star of S dangling Steiner leaves peels in ONE iteration;
        # the vectorised peel must handle thousands without quadratic
        # membership scans (this finishes in milliseconds).
        import time

        s = 4000
        xs = np.concatenate([[0.0, 1.0], np.linspace(2, 3, s)])
        ys = np.zeros(s + 2)
        edges = [(0, 1)] + [(1, 2 + i) for i in range(s)]
        t0 = time.perf_counter()
        rx, ry, redges, original = _prune_leaf_steiners(xs, ys, edges, 2)
        elapsed = time.perf_counter() - t0
        assert list(original) == [0, 1]
        assert len(redges) == 1
        assert elapsed < 0.5  # quadratic scans took seconds at this size

    def test_internal_steiner_survives(self):
        xs = np.array([0.0, 2.0, 1.0, 1.0, 1.0])
        ys = np.array([1.0, 1.0, 0.0, 2.0, 1.0])
        edges = [(0, 4), (1, 4), (2, 4), (3, 4)]
        rx, ry, redges, original = _prune_leaf_steiners(xs, ys, edges, 4)
        assert len(rx) == 5  # the hub Steiner keeps degree 4
        assert len(redges) == 4
