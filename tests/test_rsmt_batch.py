"""Equivalence tests: the array-native forest build vs the scalar reference.

The route plan + degree-bucket kernels of ``repro.route`` must write a
flat ``Forest`` whose every array equals flattening per-net
:func:`repro.route.rsmt.build_rsmt` trees (same node order, same parents,
same coordinate owners), because checkpoint restoration replays
construction from coordinates alone.  The forest policy itself is pinned
here too: Steiner search in the exact buckets (degree 4-8), plain RMST above.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.suite import load_design
from repro.route import MAX_STEINER_DEGREE, Forest, route_plan
from repro.route import batch
from repro.route.batch import batched_one_steiner, batched_prim
from repro.route.plan import bucket_width
from repro.route.rsmt import (
    _prim_edges,
    _prune_leaf_steiners,
    build_forest,
    build_forest_for_nets,
    build_rsmt,
    build_trees,
)

FOREST_ARRAYS = (
    "parent",
    "node_net",
    "node_pin",
    "owner_x_pin",
    "owner_y_pin",
    "is_root",
    "is_steiner",
    "has_parent",
    "depth",
    "node_offset",
    "pin_node",
)


def assert_forests_equal(a, b):
    for attr in FOREST_ARRAYS:
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    assert a.n_nodes == b.n_nodes and a.max_depth == b.max_depth
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la, lb)


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


def reference_forest(design, px, py, include_clock=False):
    """``Forest([build_rsmt(...) per net])``: the scalar reference."""
    trees = []
    for ni in range(design.n_nets):
        lo, hi = design.net2pin_start[ni], design.net2pin_start[ni + 1]
        pins = design.net2pin[lo:hi]
        driver = design.net_driver[ni]
        if (
            len(pins) < 2
            or driver < 0
            or (design.net_is_clock[ni] and not include_clock)
        ):
            trees.append(None)
            continue
        local = int(np.nonzero(pins == driver)[0][0])
        trees.append(build_rsmt(px[pins], py[pins], pins, driver_local=local))
    return Forest(trees, design.n_pins)


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
    reference = reference_forest(design, px, py)
    assert_forests_equal(forest, reference)
    # Candidates scored in many row blocks: three rows each at degree 4,
    # one row each from degree 5 on.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_TABLE_ENTRIES", 1000)
        assert_forests_equal(build_forest_for_nets(design, px, py), reference)
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


class TestBatchedPrim:
    def test_matches_scalar_prim_rows(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9):
            X = rng.integers(0, 30, (17, n)).astype(float)
            Y = rng.integers(0, 30, (17, n)).astype(float)
            parent, total = batched_prim(X, Y)
            for r in range(len(X)):
                edges, length = _prim_edges(X[r], Y[r])
                expect = np.full(n, -1)
                for src, dst in edges:
                    expect[dst] = src
                assert np.array_equal(parent[r], expect)
                assert total[r] == length  # bit-identical sums

    def test_ragged_rows_match_their_prefix(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 30, (23, 9))
        Y = rng.uniform(0, 30, (23, 9))
        n_nodes = rng.integers(1, 10, 23)
        parent, total = batched_prim(X, Y, n_nodes)
        for r, n in enumerate(n_nodes):
            ref_parent, ref_total = batched_prim(X[r : r + 1, :n], Y[r : r + 1, :n])
            assert np.array_equal(parent[r, :n], ref_parent[0])
            assert (parent[r, n:] == -1).all()
            assert total[r] == ref_total[0]

    def test_degenerate_single_column(self):
        parent, total = batched_prim(np.zeros((4, 1)), np.zeros((4, 1)))
        assert parent.shape == (4, 1) and (parent == -1).all()
        assert np.all(total == 0.0)


class TestBatchedOneSteiner:
    def test_coincident_candidates_masked_not_dropped(self):
        # All pins on a line: every Hanan candidate coincides with a pin,
        # so no insertion may happen (the scalar path drops them all).
        X = np.array([[0.0, 5.0, 9.0, 12.0]])
        Y = np.array([[2.0, 2.0, 2.0, 2.0]])
        XS, YS, n_ins, _, _ = batched_one_steiner(X, Y)
        assert n_ins[0] == 0


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
class TestBucketEquivalence:
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
    """Every padded bucket (degree > MAX_STEINER_DEGREE) is a plain RMST."""

    @staticmethod
    def assert_plain_rmst(nets):
        """Batched == scalar, no Steiner node, and every tree's length is
        ``batched_prim``'s total bit for bit (the coordinates below are
        multiples of 1/4, so the sums are exact in any order)."""
        forest, design, px, py = check_nets(nets)
        assert not forest.is_steiner.any()
        for ni, tree in enumerate(forest.trees(px, py)):
            lo, hi = design.net2pin_start[ni], design.net2pin_start[ni + 1]
            _, total = batched_prim(px[None, lo:hi], py[None, lo:hi])
            assert tree.n_nodes == hi - lo
            assert tree.wirelength() == total[0]

    @pytest.mark.parametrize("degree", [9, 12, 19, 24, 37])
    def test_padded_degrees_are_plain_rmst(self, degree):
        rng = np.random.default_rng(degree)
        nets = _random_nets(rng, 3, degree)
        nets += _random_nets(rng, 2, degree, coord_pool=np.arange(1200) * 0.25)
        # Few distinct coordinates: duplicate pins and argmin ties.
        nets += _random_nets(rng, 2, degree, coord_pool=np.array([0.0, 3.0, 7.0, 12.0]))
        self.assert_plain_rmst(nets)

    def test_padded_bucket_mixes_degrees(self):
        # 9..12 share one 12-lane bucket, 17..20 one of 20 lanes.
        assert bucket_width(np.array([8, 9, 12, 17, 20, 21, 24, 25])).tolist() == [
            8, 12, 12, 20, 20, 24, 24, 28,
        ]
        assert bucket_width(np.array([MAX_STEINER_DEGREE])) == MAX_STEINER_DEGREE
        rng = np.random.default_rng(31)
        pool = np.arange(1200) * 0.25
        self.assert_plain_rmst(
            [
                net
                for d in (17, 18, 19, 20, 21, 24, 9, 10, 11, 12, 20, 17)
                for net in _random_nets(rng, 1, d, coord_pool=pool)
            ]
        )

    def test_big_net_mst_path(self):
        rng = np.random.default_rng(33)
        nets = _random_nets(rng, 4, 30) + _random_nets(rng, 2, 27)
        forest, design, _, _ = check_nets(nets)
        # > MAX_STEINER_DEGREE: plain MST, no Steiner points inserted.
        assert np.array_equal(np.diff(forest.node_offset), design.net_degrees)


@st.composite
def net_mixes(draw):
    """Net mixes over every degree class, on a coarse grid (coincident
    and collinear pins, ties) or on floats, driver at any local index."""
    nets = []
    for _ in range(draw(st.integers(1, 8))):
        degree = draw(st.one_of(st.integers(2, 8), st.integers(9, 40)))
        if draw(st.booleans()):
            coord = st.integers(0, draw(st.integers(1, 12))).map(float)
        else:
            coord = st.floats(0.0, 500.0, allow_nan=False, width=64)
        x = draw(st.lists(coord, min_size=degree, max_size=degree))
        y = draw(st.lists(coord, min_size=degree, max_size=degree))
        nets.append((x, y, draw(st.integers(0, degree - 1))))
    return nets


class TestNetMixes:
    @given(net_mixes())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forest_equals_reference(self, nets):
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
        _, rmst = batched_prim(x[None], y[None])
        assert forest.total_wirelength(px, py) <= rmst[0]

    @pytest.mark.parametrize("degree", [4, 5, 6, 8, 9, 12])
    def test_every_driver_index_and_insert_count(self, degree):
        # The driver at every local index, over nets whose 1-Steiner pass
        # inserts nothing (collinear pins) up to the full degree - 2
        # (integer-grid nets reach every count for the small degrees;
        # the padded buckets 9 and 12 insert nothing at all).
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


class TestDesignLevel:
    @pytest.mark.parametrize("name", ["miniblue18", "miniblue7"])
    def test_suite_design_forest_equals_reference(self, name):
        design = load_design(name)
        rng = np.random.default_rng(3)
        xl, yl, xh, yh = design.die
        x = rng.uniform(xl, xh, design.n_cells)
        y = rng.uniform(yl, yh, design.n_cells)
        px, py = design.pin_positions(x, y)
        assert_forests_equal(
            build_forest(design, x, y), reference_forest(design, px, py)
        )

    def test_midiblue50_sample_equals_reference(self):
        # Every net above degree 6 (incl. the padded 12-lane and plain-MST
        # buckets) plus a stride over the rest, the others masked out as
        # undriven: the forest of the masked view must equal its reference.
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
        assert 12 in route_plan(masked).buckets

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
