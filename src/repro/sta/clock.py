"""Propagated-clock modelling (non-ideal clock networks).

The paper's evaluation - like ours by default - assumes an ideal clock
(zero insertion delay and skew).  This module removes that idealisation
for the golden STA: the clock net is routed like any signal net and its
Elmore delay/impulse give every flip-flop CK pin a real arrival time and
slew.  Launch paths start later (CK->Q launches from the insertion delay)
and capture checks move with the local clock arrival, so *skew* - useful
or harmful - becomes visible in the setup/hold slacks:

    slack_setup(D) = (T + at_ck(capture FF)) - setup(slew_D, slew_ck) - at(D)
    slack_hold(D)  = at_early(D) - at_ck(capture FF) - hold(slew_D, slew_ck)

Enable with ``StaticTimingAnalyzer.run(..., propagated_clock=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..netlist.design import Design
from ..route.plan import RoutePlan
from ..route.rsmt import build_forest_from_plan
from .elmore import design_elmore
from .graph import TimingGraph

__all__ = ["ClockArrival", "propagate_clock"]


@dataclass
class ClockArrival:
    """Per-pin clock arrival times and slews (zero off the clock tree)."""

    at: np.ndarray  # (n_pins,) insertion delay at clock sinks
    slew: np.ndarray  # (n_pins,) clock slew at clock sinks
    is_clock_sink: np.ndarray  # (n_pins,) bool
    skew: float  # max - min arrival over clock sinks

    def arrival(self, pin: int) -> float:
        return float(self.at[pin])


def propagate_clock(
    design: Design,
    graph: TimingGraph,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
) -> ClockArrival:
    """Route the clock net(s) and compute sink arrival times and slews."""
    x = design.cell_x if cell_x is None else cell_x
    y = design.cell_y if cell_y is None else cell_y
    px, py = design.pin_positions(x, y)

    n_pins = design.n_pins
    at = np.zeros(n_pins)
    slew = np.full(n_pins, design.library.default_input_slew)
    is_sink = np.zeros(n_pins, dtype=bool)
    source_slew = design.constraints.input_slew(design.constraints.clock_port)

    plan = RoutePlan(design, design.net_is_clock)
    if len(plan.net_ids):
        forest = build_forest_from_plan(plan, px, py)
        _, (at, impulse2, _) = design_elmore(
            design, forest, px, py, graph.extra_pin_cap
        )
        is_sink[forest.node_pin[forest.node_pin >= 0]] = True
        slew[is_sink] = np.sqrt(source_slew**2 + impulse2[is_sink])
        # The driver (clock port) itself is not a sink.
        roots = forest.node_pin[np.nonzero(forest.is_root)[0]]
        is_sink[roots[roots >= 0]] = False

    sink_at = at[is_sink]
    skew = float(sink_at.max() - sink_at.min()) if len(sink_at) else 0.0
    return ClockArrival(at=at, slew=slew, is_clock_sink=is_sink, skew=skew)
