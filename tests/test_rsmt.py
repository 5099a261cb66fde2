"""Unit and property tests for the scalar RSMT construction, the oracle the
compiled Steiner-forest builder is held to (``tests/reference_rsmt.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_rsmt import (
    _prim_edges,
    _prim_lengths_batch,
    build_rsmt,
    rmst_length,
)


def random_net(rng, n):
    x = rng.integers(0, 50, n).astype(float)
    y = rng.integers(0, 50, n).astype(float)
    return x, y


class TestSmallNets:
    def test_single_pin(self):
        t = build_rsmt(np.array([3.0]), np.array([4.0]), np.array([7]))
        assert t.n_nodes == 1
        assert t.wirelength() == 0.0
        t.validate()

    def test_two_pins(self):
        t = build_rsmt(
            np.array([0.0, 3.0]), np.array([0.0, 4.0]), np.array([0, 1]), 1
        )
        assert t.wirelength() == pytest.approx(7.0)
        assert t.root == 1
        t.validate()

    def test_three_pins_median_is_optimal(self):
        # L-shaped: median point at (1, 1); RSMT length = 4.
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 2.0, 1.0])
        t = build_rsmt(x, y, np.arange(3), 0)
        t.validate()
        assert t.wirelength() == pytest.approx(4.0)

    def test_three_collinear_pins_no_steiner(self):
        x = np.array([0.0, 5.0, 9.0])
        y = np.array([2.0, 2.0, 2.0])
        t = build_rsmt(x, y, np.arange(3), 2)
        t.validate()
        assert t.wirelength() == pytest.approx(9.0)
        # Median coincides with the middle pin: star topology, no Steiner.
        assert t.n_nodes == 3

    def test_cross_four_pins_finds_steiner(self):
        # The classic case where RSMT (4) beats RMST (6).
        x = np.array([0.0, 2.0, 1.0, 1.0])
        y = np.array([1.0, 1.0, 0.0, 2.0])
        t = build_rsmt(x, y, np.arange(4), 0)
        t.validate()
        assert t.wirelength() == pytest.approx(4.0)
        assert rmst_length(x, y) == pytest.approx(6.0)

    def test_coincident_pins(self):
        x = np.array([1.0, 1.0, 1.0])
        y = np.array([1.0, 1.0, 1.0])
        t = build_rsmt(x, y, np.arange(3), 0)
        t.validate()
        assert t.wirelength() == pytest.approx(0.0)

    def test_empty_net_rejected(self):
        with pytest.raises(ValueError):
            build_rsmt(np.array([]), np.array([]), np.array([], dtype=int))


class TestProperties:
    def test_random_nets_bounded_by_mst_and_hpwl(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 13))
            x, y = random_net(rng, n)
            driver = int(rng.integers(0, n))
            t = build_rsmt(x, y, np.arange(n), driver)
            t.validate()
            wl = t.wirelength()
            assert wl <= rmst_length(x, y) + 1e-9
            half_perim = (x.max() - x.min()) + (y.max() - y.min())
            assert wl >= half_perim - 1e-9

    def test_root_is_driver(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            x, y = random_net(rng, n)
            driver = int(rng.integers(0, n))
            t = build_rsmt(x, y, np.arange(n) + 100, driver)
            assert t.root == driver
            assert t.parent[t.root] == -1
            assert t.pins[t.root] == driver + 100

    def test_steiner_owners_coordinates_match(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 12))
            x, y = random_net(rng, n)
            t = build_rsmt(x, y, np.arange(n), 0)
            for v in range(t.n_nodes):
                assert t.x[v] == t.x[t.owner_x[v]]
                assert t.y[v] == t.y[t.owner_y[v]]
                assert t.pins[t.owner_x[v]] >= 0
                assert t.pins[t.owner_y[v]] >= 0

    def test_large_net_uses_plain_mst(self):
        rng = np.random.default_rng(8)
        n = 40
        x, y = random_net(rng, n)
        t = build_rsmt(x, y, np.arange(n), 0)
        t.validate()
        assert t.n_nodes == n  # no Steiner points
        assert t.wirelength() == pytest.approx(rmst_length(x, y))

    def test_steiner_count_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            x, y = random_net(rng, n)
            t = build_rsmt(x, y, np.arange(n), 0)
            assert t.n_nodes - n <= n - 2


class TestPrimKernels:
    def test_prim_matches_known_mst(self):
        x = np.array([0.0, 1.0, 5.0])
        y = np.array([0.0, 0.0, 0.0])
        edges, total = _prim_edges(x, y)
        assert total == pytest.approx(5.0)
        assert len(edges) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    def test_batched_prim_matches_scalar(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 30, n)
        y = rng.uniform(0, 30, n)
        cx = rng.uniform(0, 30, 4)
        cy = rng.uniform(0, 30, 4)
        batch = _prim_lengths_batch(x, y, cx, cy)
        for k in range(4):
            _, scalar = _prim_edges(
                np.concatenate([x, [cx[k]]]), np.concatenate([y, [cy[k]]])
            )
            assert batch[k] == pytest.approx(scalar, rel=1e-12)


class TestDepthAndReroot:
    def test_depths_consistent_with_parents(self):
        rng = np.random.default_rng(10)
        x, y = random_net(rng, 8)
        t = build_rsmt(x, y, np.arange(8), 3)
        depth = t.depths()
        for v in range(t.n_nodes):
            if t.parent[v] >= 0:
                assert depth[v] == depth[t.parent[v]] + 1
            else:
                assert depth[v] == 0
