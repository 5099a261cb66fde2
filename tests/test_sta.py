"""Integration tests for the golden STA engine."""

import numpy as np
import pytest

from repro.netlist import FALL, RISE, make_chain_design
from repro.sta import StaticTimingAnalyzer, TimingGraph, run_sta


class TestTimingGraph:
    def test_chain_levels(self, chain_design):
        graph = TimingGraph(chain_design)
        # PI -> (A, Y) x4 -> D: one net level + one cell level per stage.
        assert graph.n_levels >= 2 * 4 + 1
        assert graph.n_endpoints == 2  # ff0/D setup + out0

    def test_start_points_include_pi_and_clock(self, chain_design):
        d = chain_design
        graph = TimingGraph(d)
        start_names = {d.pin_name[p] for p in graph.start_pins}
        assert "in0/O" in start_names
        assert "ff0/CK" in start_names

    def test_clock_net_not_propagated(self, chain_design):
        d = chain_design
        graph = TimingGraph(d)
        ck_pin = d.pin_name.index("ff0/CK")
        assert ck_pin not in graph.net_sink

    def test_non_unate_arcs_expand_to_four_contributions(self, library):
        from repro.netlist import DesignBuilder

        b2 = DesignBuilder("t2", library, die=(0, 0, 40, 20))
        b2.add_input("clk", x=0, y=0)
        b2.add_input("a", x=0, y=10)
        b2.add_input("b", x=0, y=12)
        b2.add_output("z", x=40, y=10)
        b2.add_cell("x1", "XOR2_X1")
        b2.add_net("na", ["a", "x1/A"])
        b2.add_net("nb", ["b", "x1/B"])
        b2.add_net("nz", ["x1/Y", "z"])
        d = b2.build()
        graph = TimingGraph(d)
        y_pin = d.pin_name.index("x1/Y")
        contribs = graph.plan.fanin(np.array([y_pin]))
        assert len(contribs) == 8  # 2 inputs x 2 t_in x 2 t_out (non-unate)

    def test_describe(self, chain_design):
        text = TimingGraph(chain_design).describe()
        assert "levels=" in text and "endpoints=" in text

    def test_combinational_cycle_detected(self, library):
        from repro.netlist import DesignBuilder

        b = DesignBuilder("loop", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_cell("u1", "INV_X1")
        b.add_cell("u2", "INV_X1")
        b.add_net("n1", ["u1/Y", "u2/A"])
        b.add_net("n2", ["u2/Y", "u1/A"])
        d = b.build()
        with pytest.raises(ValueError, match="cycle"):
            TimingGraph(d)


class TestChainTiming:
    def test_arrival_monotone_along_chain(self, chain_design):
        d = chain_design
        res = run_sta(d)
        order = ["in0/O", "g0/Y", "g1/Y", "g2/Y", "g3/Y", "ff0/D"]
        ats = [res.at[d.pin_name.index(p)].max() for p in order]
        assert all(a < b for a, b in zip(ats, ats[1:]))

    def test_slack_equals_rat_minus_at(self, chain_design):
        res = run_sta(chain_design)
        np.testing.assert_allclose(res.slack, res.rat - res.at)

    def test_wns_is_min_endpoint_slack(self, chain_design):
        res = run_sta(chain_design)
        assert res.wns_setup == pytest.approx(res.endpoint_slack.min())

    def test_tns_sums_only_violations(self, chain_design):
        res = run_sta(chain_design)
        expected = float(np.minimum(res.endpoint_slack, 0.0).sum())
        assert res.tns_setup == pytest.approx(expected)

    def test_loose_clock_no_violation(self):
        d = make_chain_design(3, clock_period=100000.0)
        res = run_sta(d)
        assert res.wns_setup > 0
        assert res.tns_setup == 0.0

    def test_tight_clock_violates(self):
        d = make_chain_design(6, clock_period=10.0)
        res = run_sta(d)
        assert res.wns_setup < 0
        assert res.tns_setup < 0

    def test_longer_chain_has_larger_delay(self):
        short = run_sta(make_chain_design(2))
        long = run_sta(make_chain_design(8, die=(0, 0, 120, 20)))
        d_short = short.at[short.graph.endpoint_pins[0]].max()
        d_long = long.at[long.graph.endpoint_pins[0]].max()
        assert d_long > d_short

    def test_stretching_die_increases_delay(self):
        near = run_sta(make_chain_design(4, die=(0, 0, 30, 20)))
        far = run_sta(make_chain_design(4, die=(0, 0, 300, 20)))
        assert far.wns_setup < near.wns_setup


class TestHold:
    def test_hold_computed_when_requested(self, chain_design):
        res = run_sta(chain_design, compute_hold=True)
        assert res.hold_slack is not None
        assert len(res.hold_slack) == 1  # one FF
        assert res.at_early is not None

    def test_early_at_below_late_at(self, small_design):
        res = run_sta(small_design, compute_hold=True)
        reached = (res.at > -1e29) & (res.at_early < 1e29)
        assert (res.at_early[reached] <= res.at[reached] + 1e-9).all()

    def test_chain_hold_positive(self, chain_design):
        # Single-cycle chain with real gate delays easily meets hold.
        res = run_sta(chain_design, compute_hold=True)
        assert res.wns_hold > 0


class TestGeneratedDesign:
    def test_all_endpoints_reached(self, small_design):
        res = run_sta(small_design)
        assert (np.abs(res.endpoint_slack) < 1e29).all()

    def test_net_worst_slack_shape(self, small_design):
        res = run_sta(small_design)
        ns = res.net_worst_slack()
        assert len(ns) == small_design.n_nets
        # Timing nets have finite slack, clock net reports +inf.
        clock_net = int(np.nonzero(small_design.net_is_clock)[0][0])
        assert ns[clock_net] > 1e29
        assert ns[ns < 1e29].min() == pytest.approx(res.slack.min(), abs=1.0)

    def test_moving_cells_changes_timing(self, small_design, spread_positions):
        x, y = spread_positions
        res_center = run_sta(small_design)
        res_spread = run_sta(small_design, x, y)
        assert res_center.wns_setup != pytest.approx(res_spread.wns_setup)

    def test_reuse_forest_matches_fresh_route(self, small_design, spread_positions):
        x, y = spread_positions
        sta = StaticTimingAnalyzer(small_design)
        res1 = sta.run(x, y)
        res2 = sta.run(x, y, forest=res1.forest)
        assert res1.wns_setup == pytest.approx(res2.wns_setup)
        assert res1.tns_setup == pytest.approx(res2.tns_setup)
