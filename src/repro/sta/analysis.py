"""Golden (exact) static timing analysis.

This is the evaluation timer of the reproduction: the levelised engine of
:mod:`repro.core.propagate` run with exact ``max``/``min`` merges, the
Elmore wire model of :mod:`repro.sta.elmore` and NLDM LUT cell delays.  It
computes late/early arrival times and slews per transition, required
arrival times, slacks, and setup/hold WNS/TNS as defined in Equations
(1)-(2) of the paper.

The differentiable timer (:mod:`repro.core`) is the same sweep with the
hard reductions replaced by Log-Sum-Exp; the test-suite asserts that as the
smoothing factor shrinks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.cell_prop import SweepTape
from ..core.propagate import capture_clock, endpoint_rat, propagate, start_state
from ..core.smoothing import segment_max
from ..netlist.design import Design
from ..route.rsmt import build_forest
from ..route.tree import Forest
from .elmore import (
    ElmoreResult,
    check_wire_delay_model,
    design_elmore,
    pin_elmore,
)
from .clock import ClockArrival, propagate_clock
from .graph import TimingGraph

__all__ = ["STAResult", "StaticTimingAnalyzer", "run_sta", "wns_tns"]

_NEG_INF = -1e30
_POS_INF = 1e30


@dataclass
class STAResult:
    """Complete output of one STA run.

    Arrays indexed ``[pin, transition]`` unless noted.  ``slack`` is the
    late/setup slack ``rat - at``; early/hold results are present when the
    analyzer ran with ``compute_hold=True``.
    """

    at: np.ndarray
    slew: np.ndarray
    rat: np.ndarray
    slack: np.ndarray
    endpoint_slack: np.ndarray  # per endpoint, min over transitions
    wns_setup: float
    tns_setup: float
    at_early: Optional[np.ndarray]
    slew_early: Optional[np.ndarray]
    hold_slack: Optional[np.ndarray]  # per hold check, min over transitions
    wns_hold: float
    tns_hold: float
    net_delay: np.ndarray  # per pin: Elmore delay at net sinks
    impulse: np.ndarray  # per pin: Elmore impulse at net sinks
    driver_load: np.ndarray  # per pin: net load at drivers
    tape: SweepTape  # per cell-arc contribution: late candidates, delays
    elmore: ElmoreResult
    forest: Forest
    graph: TimingGraph
    clock: Optional[ClockArrival] = None

    def net_worst_slack(self) -> np.ndarray:
        """Worst setup slack per net (over the net's pins).

        Unrouted nets (clock/degree-1) report ``+inf``.  This is the
        criticality signal consumed by the net-weighting baseline.
        """
        graph = self.graph
        runs = graph.plan.net_runs
        pin_slack = self.slack.min(axis=1)
        out = np.full(graph.design.n_nets, _POS_INF)
        out[runs.ids] = np.minimum(
            pin_slack[runs.drivers],
            np.minimum.reduceat(pin_slack[graph.net_sink], runs.starts),
        )
        return out


def wns_tns(endpoint_slack: np.ndarray) -> Tuple[float, float]:
    """Worst and total negative slack over the constrained endpoints."""
    finite = endpoint_slack < _POS_INF / 2
    if not np.any(finite):
        return 0.0, 0.0
    return (
        float(endpoint_slack[finite].min()),
        float(np.minimum(endpoint_slack[finite], 0.0).sum()),
    )


class StaticTimingAnalyzer:
    """Levelised exact STA over a :class:`Design`.

    The timing graph is built once (pin levels are placement-independent);
    each :meth:`run` re-routes (or reuses) the Steiner forest, replays the
    Elmore passes, and propagates arrival times.
    """

    def __init__(
        self,
        design: Design,
        graph: Optional[TimingGraph] = None,
        wire_delay_model: str = "elmore",
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        self.wire_delay_model = check_wire_delay_model(wire_delay_model)

    # ------------------------------------------------------------------
    def run(
        self,
        cell_x: Optional[np.ndarray] = None,
        cell_y: Optional[np.ndarray] = None,
        forest: Optional[Forest] = None,
        compute_hold: bool = False,
        propagated_clock: bool = False,
    ) -> STAResult:
        """Run full STA at the given (default: stored) cell locations.

        With ``propagated_clock=True`` the clock net is routed and its
        Elmore insertion delays/slews drive the launch arrivals at FF CK
        pins and shift the capture edge of every setup/hold check (see
        :mod:`repro.sta.clock`); the default is the paper's ideal clock.
        """
        design = self.design
        graph = self.graph
        x = design.cell_x if cell_x is None else cell_x
        y = design.cell_y if cell_y is None else cell_y
        if forest is None:
            forest = build_forest(design, x, y)
        elmore = design_elmore(
            design, forest, *design.pin_positions(x, y), graph.extra_pin_cap
        )
        net_delay, impulse2, driver_load = pin_elmore(
            forest, elmore, design.n_pins, self.wire_delay_model
        )
        # Golden slews are defined on the reported (rounded) impulse:
        # sqrt, then square again - the differentiable timer keeps the
        # unrounded square.  Skipping the round trip moves golden bits.
        impulse = np.sqrt(impulse2)
        impulse2 = impulse**2

        clock = start = None
        if propagated_clock:
            clock = propagate_clock(design, graph, x, y)
            start = graph.start_at.copy(), graph.start_slew.copy()
            sinks = clock.is_clock_sink
            start[0][sinks] = clock.at[sinks, None]
            start[1][sinks] = clock.slew[sinks, None]

        def sweep(merge: str, fill_at: float, fill_slew: float):
            at, slew = start_state(graph.plan, fill_at, fill_slew, start)
            tape = propagate(
                graph.plan, graph.lutbank, net_delay, impulse2, driver_load,
                at, slew, merge,
            )
            return at, slew, tape

        at, slew, tape = sweep("max", _NEG_INF, 0.0)
        rat = self._required_times(slew, net_delay, tape.delay, clock)
        slack = rat - at
        ep = graph.endpoint_pins
        endpoint_slack = slack[ep].min(axis=1) if len(ep) else np.zeros(0)
        wns, tns = wns_tns(endpoint_slack)

        at_early = slew_early = hold_slack = None
        wns_hold = tns_hold = 0.0
        if compute_hold and len(graph.hold_d):
            at_early, slew_early, _ = sweep("min", _POS_INF, _POS_INF)
            ck_at, ck_slew = capture_clock(graph, graph.hold_ck, clock)
            # Both transitions in one stacked (2, n) lookup.
            hold_time = graph.lutbank.lookup(
                graph.hold_lut.T, slew_early[graph.hold_d].T, ck_slew
            )
            hold_slack = (at_early[graph.hold_d].T - ck_at - hold_time).min(axis=0)
            wns_hold = float(hold_slack.min())
            tns_hold = float(np.minimum(hold_slack, 0.0).sum())

        return STAResult(
            at=at,
            slew=slew,
            rat=rat,
            slack=slack,
            endpoint_slack=endpoint_slack,
            wns_setup=wns,
            tns_setup=tns,
            at_early=at_early,
            slew_early=slew_early,
            hold_slack=hold_slack,
            wns_hold=wns_hold,
            tns_hold=tns_hold,
            net_delay=net_delay,
            impulse=impulse,
            driver_load=driver_load,
            tape=tape,
            elmore=elmore,
            forest=forest,
            graph=graph,
            clock=clock,
        )

    # ------------------------------------------------------------------
    def _required_times(self, slew, net_delay, arc_delay, clock) -> np.ndarray:
        """Backward RAT propagation for the late (setup) mode.

        Walks the plan's levels in reverse with the arc delays the forward
        sweep recorded: the ``min`` over a cell level's compact source
        segments is ``-max(-x)``, over a net level one ``reduceat`` of the
        nets' contiguous arc runs.
        """
        graph = self.graph
        plan = graph.plan
        rat = np.full((self.design.n_pins, 2), _POS_INF)
        rat[graph.endpoint_pins] = endpoint_rat(graph, slew, clock=clock)[0]
        rat_flat = rat.reshape(-1)
        for (net, cell), (runs, sources) in zip(
            reversed(plan.levels), reversed(plan.reverse)
        ):
            if cell is not None:
                worst = -segment_max(
                    arc_delay[cell.sl] - rat_flat[cell.dst],
                    sources.seg, len(sources.touched),
                )
                rat_flat[sources.touched] = np.minimum(
                    rat_flat[sources.touched], worst
                )
            if net is not None:
                worst = np.minimum.reduceat(
                    rat.take(net.sinks, axis=0) - net_delay[net.sinks][:, None],
                    runs.starts, axis=0,
                )
                rat[runs.drivers] = np.minimum(
                    rat.take(runs.drivers, axis=0), worst
                )
        return rat


def run_sta(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
    compute_hold: bool = False,
    wire_delay_model: str = "elmore",
    propagated_clock: bool = False,
    graph: Optional[TimingGraph] = None,
) -> STAResult:
    """One-shot STA convenience wrapper.

    ``graph`` skips the levelization/LUT-banking rebuild by reusing a
    prebuilt :class:`TimingGraph` of the *same* design (e.g. from a
    cached design bundle); results are bit-identical either way.
    """
    analyzer = StaticTimingAnalyzer(
        design, graph=graph, wire_delay_model=wire_delay_model
    )
    return analyzer.run(
        cell_x, cell_y, compute_hold=compute_hold,
        propagated_clock=propagated_clock,
    )
