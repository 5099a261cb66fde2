"""The one levelised propagation engine (``repro.core.propagate``).

Golden STA and the differentiable timer are thin callers of
:func:`propagate`; these tests hold the engine itself to the properties
the callers rely on: the LSE merge tends to the hard max as gamma
shrinks, and the ``min``/propagated-clock modes of golden STA agree with
a per-pin Python reference.
"""

import numpy as np
import pytest

from repro.core.propagate import propagate
from repro.route import build_forest
from repro.sta import StaticTimingAnalyzer, TimingGraph, run_sta
from repro.sta.elmore import design_elmore


@pytest.fixture(scope="module")
def graph(small_design):
    return TimingGraph(small_design)


def sweep(graph, inputs, merge, gamma=0.0, fill=(-1e30, 0.0)):
    at = np.full((len(graph.level), 2), fill[0])
    slew = np.full((len(graph.level), 2), fill[1])
    at[graph.start_pins] = graph.start_at
    slew[graph.start_pins] = graph.start_slew
    tape = propagate(graph.plan, graph.lutbank, *inputs, at, slew, merge, gamma)
    return at, slew, tape


@pytest.fixture(scope="module", params=["elmore", "d2m"])
def inputs(request, small_design, graph, spread_positions):
    """Per-pin ``(net_delay, impulse2, driver_load)`` of one placement."""
    x, y = spread_positions
    forest = build_forest(small_design, x, y)
    return design_elmore(
        small_design, forest, *small_design.pin_positions(x, y),
        graph.extra_pin_cap, request.param,
    )[1]


class TestLseTendsToHardMax:
    def test_monotone_convergence_in_gamma(self, graph, inputs):
        """``LSE_gamma >= max`` and the gap closes monotonically as gamma
        goes 10 -> 1 -> 0.1 -> 0.01, for arrival times and slews."""
        hard_at, hard_slew, _ = sweep(graph, inputs, "max")
        reached = hard_at > -1e29
        gaps = []
        for gamma in (10.0, 1.0, 0.1, 0.01):
            at, slew, _ = sweep(graph, inputs, "lse", gamma)
            assert np.array_equal(at > -1e29, reached)
            gap_at = at[reached] - hard_at[reached]
            gap_slew = slew[reached] - hard_slew[reached]
            assert gap_at.min() >= -1e-9 and gap_slew.min() >= -1e-9
            gaps.append((gap_at.max(), gap_slew.max()))
        for (at_hi, slew_hi), (at_lo, slew_lo) in zip(gaps, gaps[1:]):
            assert at_lo < at_hi and slew_lo < slew_hi
        # At gamma = 0.01 a merge of k candidates overshoots by at most
        # gamma * log(k) per level.
        assert gaps[-1][0] < 0.01 * np.log(8) * graph.n_levels
        assert gaps[-1][1] < 0.01 * np.log(8) * graph.n_levels

    @pytest.mark.parametrize("model", ["elmore", "d2m"])
    def test_difftimer_tns_wns_tend_to_golden(
        self, small_design, graph, spread_positions, model
    ):
        """End to end: the smoothed TNS/WNS close in on the golden STA's
        (LSE overshoots max, so the smoothed values are pessimistic)."""
        from repro.core import DifferentiableTimer

        x, y = spread_positions
        golden = run_sta(small_design, x, y, wire_delay_model=model, graph=graph)
        forest = build_forest(small_design, x, y)
        gaps = []
        for gamma in (10.0, 1.0, 0.1):
            tape = DifferentiableTimer(
                small_design, graph, gamma=gamma, wire_delay_model=model
            ).forward(x, y, forest)
            gaps.append((golden.wns_setup - tape.wns, golden.tns_setup - tape.tns))
        for (wns_hi, tns_hi), (wns_lo, tns_lo) in zip(gaps, gaps[1:]):
            assert 0.0 <= wns_lo < wns_hi and 0.0 <= tns_lo < tns_hi
        assert gaps[-1][0] < 1.0 and gaps[-1][1] < 1e-3 * abs(golden.tns_setup)

    def test_unknown_merge_rejected(self, graph, inputs):
        with pytest.raises(ValueError, match="merge"):
            sweep(graph, inputs, "mean")


def reference_sta(design, graph, result, late):
    """Per-pin Python max/min sweep over the pins in level order."""
    pick = max if late else min
    n_pins = design.n_pins
    at = np.full((n_pins, 2), -1e30 if late else 1e30)
    slew = np.full((n_pins, 2), 0.0 if late else 1e30)
    at[graph.start_pins] = graph.start_at
    slew[graph.start_pins] = graph.start_slew
    if result.clock is not None:
        sinks = graph.start_pins[result.clock.is_clock_sink[graph.start_pins]]
        at[sinks] = result.clock.at[sinks, None]
        slew[sinks] = result.clock.slew[sinks, None]
    net_src = dict(zip(graph.net_sink.tolist(), graph.net_src.tolist()))
    fanin = {}
    for c, (dst, tout) in enumerate(zip(graph.c_dst.tolist(), graph.c_tout.tolist())):
        fanin.setdefault((dst, tout), []).append(c)
    for p in np.argsort(graph.level, kind="stable").tolist():
        if p in net_src:
            at[p] = at[net_src[p]] + result.net_delay[p]
            slew[p] = np.sqrt(slew[net_src[p]] ** 2 + result.impulse[p] ** 2)
            continue
        for t in (0, 1):
            ats, slews = [at[p, t]], [slew[p, t]]
            for c in fanin.get((p, t), []):
                u, tin = graph.c_src[c], graph.c_tin[c]
                query = (
                    np.array([np.clip(slew[u, tin], 0.0, 1e6)]),
                    np.array([result.driver_load[p]]),
                )
                ats.append(at[u, tin] + graph.lutbank.lookup(graph.c_lut_delay[[c]], *query)[0])
                slews.append(graph.lutbank.lookup(graph.c_lut_slew[[c]], *query)[0])
            at[p, t], slew[p, t] = pick(ats), pick(slews)
    return at, slew


class TestGoldenModesAgainstPythonReference:
    @pytest.fixture(scope="class", params=[False, True], ids=["ideal", "propagated"])
    def result(self, request, small_design, graph, spread_positions):
        return StaticTimingAnalyzer(small_design, graph).run(
            *spread_positions, compute_hold=True, propagated_clock=request.param
        )

    def test_late_and_early_sweeps(self, small_design, graph, result):
        at, slew = reference_sta(small_design, graph, result, late=True)
        assert np.array_equal(result.at, at) and np.array_equal(result.slew, slew)
        at, slew = reference_sta(small_design, graph, result, late=False)
        assert np.array_equal(result.at_early, at)
        assert np.array_equal(result.slew_early, slew)
        assert (result.at_early[result.at > -1e29] <= result.at[result.at > -1e29]).all()

    def test_setup_and_hold_checks(self, small_design, graph, result):
        period = small_design.constraints.clock_period
        bank = graph.lutbank
        clock = result.clock
        for k, (d, ck) in enumerate(zip(graph.setup_d, graph.setup_ck)):
            ck_at, ck_slew = (0.0, graph.clock_slew) if clock is None else (clock.at[ck], clock.slew[ck])
            slacks = [
                period + ck_at
                - bank.lookup(graph.setup_lut[[k], t], result.slew[[d], t], np.array([ck_slew]))[0]
                - result.at[d, t]
                for t in (0, 1)
            ]
            assert result.endpoint_slack[k] == pytest.approx(min(slacks), abs=1e-9)
        assert len(graph.hold_d) and result.hold_slack is not None
        for k, (d, ck) in enumerate(zip(graph.hold_d, graph.hold_ck)):
            ck_at, ck_slew = (0.0, graph.clock_slew) if clock is None else (clock.at[ck], clock.slew[ck])
            slacks = [
                result.at_early[d, t] - ck_at
                - bank.lookup(graph.hold_lut[[k], t], result.slew_early[[d], t], np.array([ck_slew]))[0]
                for t in (0, 1)
            ]
            assert result.hold_slack[k] == pytest.approx(min(slacks), abs=1e-9)
        assert result.wns_hold == pytest.approx(result.hold_slack.min())

    def test_required_times(self, small_design, graph, result):
        """RAT(u) = min over u's fan-out arcs of RAT(v) - delay, from the
        endpoint checks down; pins that reach no endpoint stay at +inf."""
        rat = np.full_like(result.rat, 1e30)
        ep = graph.endpoint_pins
        rat[ep] = result.rat[ep]
        for p in np.argsort(-graph.level, kind="stable").tolist():
            for c in np.nonzero(graph.c_src == p)[0]:
                v, tin, tout = graph.c_dst[c], graph.c_tin[c], graph.c_tout[c]
                rat[p, tin] = min(rat[p, tin], rat[v, tout] - result.tape.delay[c])
            for v in graph.net_sink[graph.net_src == p]:
                rat[p] = np.minimum(rat[p], rat[v] - result.net_delay[v])
        assert np.array_equal(result.rat, rat)
        assert np.array_equal(result.slack, rat - result.at)


def test_net_worst_slack_is_the_per_net_minimum(small_design, spread_positions):
    result = run_sta(small_design, *spread_positions)
    pin_slack = result.slack.min(axis=1)
    d = small_design
    timed = np.flatnonzero((d.net_driver >= 0) & ~d.net_is_clock & (d.net_degrees >= 2))
    expected = np.full(d.n_nets, 1e30)
    for ni in timed.tolist():
        expected[ni] = pin_slack[d.net_pins(ni)].min()
    assert len(timed) < d.n_nets  # clock net
    assert np.array_equal(result.net_worst_slack(), expected)
