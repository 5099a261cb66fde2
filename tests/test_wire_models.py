"""Tests for the alternative (D2M) differentiable wire-delay model.

The paper claims its framework generalises to any wire model expressible
analytically from the Elmore moment passes; the D2M metric is the proof of
concept: same four DP passes, different analytic head.
"""

import numpy as np
import pytest

from repro.core import DifferentiableTimer
from repro.netlist import WireModel
from repro.core import sweep
from repro.route import Forest, RoutingTree, build_forest
from repro.sta import StaticTimingAnalyzer, run_sta
from repro.sta.elmore import elmore_forward


def pin_d2m(forest, node_x, node_y, caps, wire):
    """The D2M wire delay the timers read at the forest's pins."""
    pins = sweep.elmore_prepass(
        forest, node_x, node_y, caps, wire, wire_delay_model="d2m"
    )[2]
    return pins[0][forest.pins_of_nodes]


class TestD2MMetric:
    def test_single_pole_is_exact_ln2(self):
        """One lumped RC: m2 = m1^2, so D2M = ln2 * m1 (textbook value)."""
        tree = RoutingTree(
            x=np.array([0.0, 10.0]),
            y=np.array([0.0, 0.0]),
            parent=np.array([-1, 0]),
            pins=np.array([0, 1]),
            owner_x=np.array([0, 1]),
            owner_y=np.array([0, 1]),
            root=0,
        )
        forest = Forest([tree], 2)
        # No wire capacitance: all cap at the sink -> single pole.
        wire = WireModel(res_per_um=0.02, cap_per_um=0.0)
        caps = np.array([0.0, 5.0])
        elm = elmore_forward(forest, tree.x, tree.y, caps, wire)
        d2m = pin_d2m(forest, tree.x, tree.y, caps, wire)
        assert d2m[1] == pytest.approx(np.log(2.0) * elm.delay[1])

    def test_zero_moments_give_zero(self):
        tree = RoutingTree(
            x=np.array([0.0, 10.0, 5.0]),
            y=np.array([0.0, 0.0, 4.0]),
            parent=np.array([-1, 0, 0]),
            pins=np.array([0, 1, 2]),
            owner_x=np.array([0, 1, 2]),
            owner_y=np.array([0, 1, 2]),
            root=0,
        )
        forest = Forest([tree], 3)
        out = pin_d2m(forest, tree.x, tree.y, np.zeros(3), WireModel(0.0, 0.0))
        np.testing.assert_allclose(out, 0.0)

    def test_less_pessimistic_than_elmore(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        px, py = small_design.pin_positions(x, y)
        nx, ny = forest.node_coords(px, py)
        from repro.sta.elmore import node_caps

        caps = node_caps(forest, small_design.pin_cap)
        elm = elmore_forward(forest, nx, ny, caps, small_design.library.wire)
        d2m = pin_d2m(forest, nx, ny, caps, small_design.library.wire)
        assert (d2m <= elm.delay[forest.pin_nodes] + 1e-9).all()
        assert (d2m >= 0).all()


class TestGoldenStaWithD2M:
    def test_d2m_sta_is_faster_overall(self, small_design, spread_positions):
        x, y = spread_positions
        elmore_res = run_sta(small_design, x, y)
        d2m_res = run_sta(small_design, x, y, wire_delay_model="d2m")
        # D2M shortens every net delay, so arrival times can only improve.
        assert d2m_res.wns_setup >= elmore_res.wns_setup
        assert d2m_res.tns_setup >= elmore_res.tns_setup

    def test_unknown_model_rejected(self, small_design):
        with pytest.raises(ValueError, match="wire delay model"):
            StaticTimingAnalyzer(small_design, wire_delay_model="pi")
        with pytest.raises(ValueError, match="wire delay model"):
            DifferentiableTimer(small_design, wire_delay_model="pi")


class TestDifferentiableD2M:
    @pytest.fixture(scope="class")
    def env(self, small_design, spread_positions):
        x, y = spread_positions
        forest = build_forest(small_design, x, y)
        timer = DifferentiableTimer(
            small_design, gamma=15.0, wire_delay_model="d2m"
        )
        return small_design, x, y, forest, timer

    def test_gradient_matches_finite_difference(self, env):
        design, x, y, forest, timer = env
        tape = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape, d_tns=1.0, d_wns=0.2)

        def objective(xx, yy):
            t = timer.forward(xx, yy, forest)
            return t.tns + 0.2 * t.wns

        rng = np.random.default_rng(7)
        movable = np.nonzero(~design.cell_fixed)[0]
        strong = movable[np.argsort(-np.abs(gx[movable]))[:5]]
        probes = np.unique(np.concatenate([strong, rng.choice(movable, 5)]))
        eps = 1e-4
        for ci in probes:
            a, b = x.copy(), x.copy()
            a[ci] += eps
            b[ci] -= eps
            fd = (objective(a, y) - objective(b, y)) / (2 * eps)
            assert gx[ci] == pytest.approx(fd, rel=2e-3, abs=1e-6)

    def test_placement_with_d2m_objective_improves_timing(self, medium_design):
        from repro.core import (
            TimingDrivenPlacer,
            TimingObjectiveOptions,
            TimingPlacerOptions,
        )
        from repro.place import GlobalPlacer, PlacerOptions

        popts = PlacerOptions(max_iters=450, seed=0)
        base = GlobalPlacer(medium_design, popts).run()
        tp = TimingDrivenPlacer(
            medium_design,
            TimingPlacerOptions(placer=popts, sta_in_trace=False),
        )
        tp.objective.timer.wire_delay_model = "d2m"
        ours = tp.run()
        rb = run_sta(medium_design, base.x, base.y)
        ro = run_sta(medium_design, ours.x, ours.y)
        assert ro.tns_setup > rb.tns_setup
