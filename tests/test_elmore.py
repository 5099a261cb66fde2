"""Unit tests for the Elmore forward pass against an O(n^2) reference.

The vectorised 4-pass DP is checked against the textbook closed forms:

    Delay(v) = sum_u Cap(u) * R_common(u, v)
    Beta(v)  = sum_u Cap(u) * Delay(u) * R_common(u, v)

where ``R_common`` is the resistance of the shared root path.
"""

import numpy as np
import pytest

from repro.netlist import WireModel
from repro.route import Forest, RoutingTree, build_forest
from repro.sta.elmore import design_elmore, elmore_forward, node_caps


def make_tree(x, y, parent, root, pins=None):
    n = len(x)
    pins_arr = np.arange(n) if pins is None else np.asarray(pins)
    return RoutingTree(
        x=np.asarray(x, float),
        y=np.asarray(y, float),
        parent=np.asarray(parent, dtype=np.int64),
        pins=pins_arr,
        owner_x=np.arange(n),
        owner_y=np.arange(n),
        root=root,
    )


def brute_force_reference(forest, node_x, node_y, caps, wire):
    """O(n^2) Elmore delays/betas per tree via shared-path resistance."""
    n = forest.n_nodes
    parent = forest.parent
    has_parent = parent >= 0
    node_net = np.repeat(np.arange(forest.n_nets), np.diff(forest.node_offset))
    res = wire.res_per_um * forest.edge_lengths(node_x, node_y)
    total_cap = caps.copy()
    hw = 0.5 * wire.cap_per_um * forest.edge_lengths(node_x, node_y)
    total_cap[has_parent] += hw[has_parent]
    np.add.at(total_cap, parent[has_parent], hw[has_parent])

    def root_path(v):
        path = []
        while parent[v] >= 0:
            path.append(v)
            v = parent[v]
        return set(path)

    paths = [root_path(v) for v in range(n)]
    delay = np.zeros(n)
    for v in range(n):
        for u in range(n):
            if node_net[u] != node_net[v]:
                continue
            shared = paths[u] & paths[v]
            delay[v] += total_cap[u] * sum(res[e] for e in shared)
    beta = np.zeros(n)
    for v in range(n):
        for u in range(n):
            if node_net[u] != node_net[v]:
                continue
            shared = paths[u] & paths[v]
            beta[v] += total_cap[u] * delay[u] * sum(res[e] for e in shared)
    return delay, beta, total_cap


class TestClosedForms:
    def test_two_pin_wire(self):
        """Driver at 0, sink at distance L: delay = R*(C_w/2 + C_pin)."""
        wire = WireModel(res_per_um=0.01, cap_per_um=0.2)
        tree = make_tree([0.0, 10.0], [0.0, 0.0], [-1, 0], 0)
        forest = Forest([tree], 2)
        caps = np.array([0.0, 3.0])  # driver 0 fF, sink 3 fF
        res = elmore_forward(
            forest, tree.x, tree.y, caps, wire
        )
        r_wire = 0.01 * 10.0
        c_half = 0.5 * 0.2 * 10.0
        expected = r_wire * (c_half + 3.0)
        assert res.delay[1] == pytest.approx(expected)
        assert res.delay[0] == 0.0
        assert res.load[0] == pytest.approx(2 * c_half + 3.0)

    def test_star_loads_sum(self):
        wire = WireModel(res_per_um=0.01, cap_per_um=0.1)
        tree = make_tree(
            [0.0, 5.0, -5.0, 0.0], [0.0, 0.0, 0.0, 7.0], [-1, 0, 0, 0], 0
        )
        forest = Forest([tree], 4)
        caps = np.array([0.0, 1.0, 2.0, 3.0])
        res = elmore_forward(forest, tree.x, tree.y, caps, wire)
        wire_cap = 0.1 * (5 + 5 + 7)
        assert res.load[0] == pytest.approx(1 + 2 + 3 + wire_cap)

    def test_impulse_non_negative(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        caps = node_caps(forest, small_design.pin_cap)
        res = elmore_forward(forest, nx, ny, caps, small_design.library.wire)
        # The squared impulse 2*beta - delay^2 is the variance of the
        # node's impulse response: non-negative up to rounding, and so the
        # clamp in what the timers read at the pins only removes rounding.
        variance = 2.0 * res.beta - res.delay**2
        assert (variance >= -1e-12 * res.delay.max() ** 2).all()
        impulse2 = design_elmore(small_design, forest, px, py)[1][1]
        pins = forest.pins_of_nodes
        assert (impulse2 >= 0).all()
        np.testing.assert_allclose(
            impulse2[pins], variance[forest.pin_nodes],
            rtol=0, atol=1e-12 * res.delay.max() ** 2,
        )
        assert (res.delay >= 0).all()
        assert (res.load > 0).all()


class TestAgainstBruteForce:
    def test_random_forest_matches_reference(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        caps = node_caps(forest, small_design.pin_cap)
        wire = small_design.library.wire
        res = elmore_forward(forest, nx, ny, caps, wire)
        ref_delay, ref_beta, ref_cap = brute_force_reference(
            forest, nx, ny, caps, wire
        )
        np.testing.assert_allclose(res.cap, ref_cap, rtol=1e-10)
        np.testing.assert_allclose(res.delay, ref_delay, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(res.beta, ref_beta, rtol=1e-9, atol=1e-12)

    def test_deep_chain_tree(self):
        n = 12
        wire = WireModel(res_per_um=0.02, cap_per_um=0.15)
        x = np.cumsum(np.ones(n)) * 3.0
        y = np.zeros(n)
        parent = np.arange(-1, n - 1)
        tree = make_tree(x, y, parent, 0)
        forest = Forest([tree], n)
        caps = np.linspace(1.0, 2.0, n)
        res = elmore_forward(forest, tree.x, tree.y, caps, wire)
        ref_delay, ref_beta, _ = brute_force_reference(
            forest, tree.x, tree.y, caps, wire
        )
        np.testing.assert_allclose(res.delay, ref_delay, rtol=1e-9)
        np.testing.assert_allclose(res.beta, ref_beta, rtol=1e-9)
        # Delay is monotone along the chain.
        assert (np.diff(res.delay) > 0).all()


class TestRootLoad:
    def test_scatters_to_driver_pins(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        res, (_, _, loads) = design_elmore(small_design, forest, px, py)
        roots = np.nonzero(forest.is_root)[0]
        for r in roots:
            pin = forest.node_pin[r]
            assert loads[pin] == pytest.approx(res.load[r])
        # Non-driver pins carry zero.
        sinks = forest.node_pin[(forest.node_pin >= 0) & ~forest.is_root]
        assert (loads[sinks] == 0).all()

    def test_extra_pin_cap_adds_to_load(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        wire = small_design.library.wire
        caps0 = node_caps(forest, small_design.pin_cap)
        extra = np.ones(small_design.n_pins)
        caps1 = node_caps(forest, small_design.pin_cap, extra)
        res0 = elmore_forward(forest, nx, ny, caps0, wire)
        res1 = elmore_forward(forest, nx, ny, caps1, wire)
        assert (res1.load >= res0.load - 1e-12).all()
        assert res1.load.sum() > res0.load.sum()


class TestPinElmore:
    """Forest-node Elmore outputs as the timers' per-pin inputs."""

    @pytest.fixture(scope="class")
    def routed(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        return forest, small_design.pin_positions(x, y)

    @pytest.mark.parametrize("model", ["elmore", "d2m"])
    def test_per_pin_values(self, small_design, routed, model):
        forest, (px, py) = routed
        n_pins = small_design.n_pins
        elm, (net_delay, impulse2, driver_load) = design_elmore(
            small_design, forest, px, py, wire_delay_model=model
        )
        mask = forest.node_pin >= 0
        pins = forest.node_pin[mask]
        wire = elm.delay
        if model == "d2m":
            m2 = np.maximum(elm.beta, 1e-30)
            wire = np.where(
                elm.beta > 0, np.log(2.0) * elm.delay * elm.delay / np.sqrt(m2), 0.0
            )
        assert np.array_equal(net_delay[pins], wire[mask])
        assert np.array_equal(
            impulse2[pins], np.maximum(2.0 * elm.beta - elm.delay**2, 0.0)[mask]
        )
        roots = np.zeros(n_pins)
        roots[forest.driver_pins] = elm.load[forest.driver_nodes]
        assert np.array_equal(driver_load, roots)
        off = np.setdiff1d(np.arange(n_pins), pins)
        assert len(off) and not net_delay[off].any() and not impulse2[off].any()

    def test_unknown_wire_model_rejected(self):
        from repro.sta.elmore import check_wire_delay_model

        assert check_wire_delay_model("d2m") == "d2m"
        with pytest.raises(ValueError, match="wire delay model"):
            check_wire_delay_model("pi")
