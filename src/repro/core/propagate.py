"""The levelised propagation engine shared by all three timers.

The paper's timer *is* the golden STA with ``max`` swapped for
``LSE_gamma`` (Equation (5)) on levels that never depend on placement
(Section 3.3).  :func:`propagate` is that one sweep: golden STA (late
``max``, early ``min``), the incremental timer's cone sweep (the plan
restricted to the dirty pins of a level) and the differentiable timer
(``LSE``, with the LUT partials taped for the backward pass) all call it
over the graph's shared :class:`~repro.sta.graph.LevelPlan`.
:func:`endpoint_rat` is the required-time side of the endpoint slacks they
all report.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..perf import PROFILER
from ..sta.graph import LevelPlan, TimingGraph
from ..sta.nldm import LutBank
from .cell_prop import SLEW_CLIP_MAX, SweepTape, cell_forward_level
from .net_prop import net_forward_level

__all__ = ["propagate", "capture_clock", "endpoint_rat"]


def propagate(
    plan: LevelPlan,
    lutbank: LutBank,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    driver_load: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
    merge: str,
    gamma: float = 0.0,
    partials: bool = False,
    pins: Optional[np.ndarray] = None,
) -> SweepTape:
    """Sweep arrival times and slews forward over the levels (in place).

    ``at``/``slew`` are ``(n_pins, 2)`` and hold the boundary values at the
    start pins (and, with ``pins``, the current state everywhere).
    ``net_delay``/``impulse2``/``driver_load`` are the per-pin Elmore
    outputs of :func:`repro.sta.elmore.pin_elmore`.  Fan-ins merge with
    ``merge`` - ``"max"``, ``"min"`` or ``"lse"`` smoothed by ``gamma``.
    With ``pins`` only those sink pins are recomputed, each from all of
    its fan-ins.  Returns the per-contribution tape (of the full plan, or
    compact over the restriction), with the LUT partials if ``partials``.
    """
    levels, n = (plan.levels, plan.n_contribs) if pins is None else plan.restrict(pins)
    tape = SweepTape(
        np.zeros((2, n)),
        np.zeros(n),
        np.zeros((2, n)) if partials else None,
        np.zeros((2, n)) if partials else None,
    )
    at_flat, slew_flat = at.reshape(-1), slew.reshape(-1)
    for net, cell in levels:
        if net is not None:
            with PROFILER.stage("propagate.net_level"):
                net_forward_level(
                    net.sinks, net.srcs, net_delay, impulse2, at, slew
                )
        if cell is not None:
            with PROFILER.stage("propagate.cell_level"):
                cell_forward_level(
                    cell, lutbank, driver_load, merge, gamma,
                    at_flat, slew_flat, tape,
                )
    return tape


def capture_clock(graph: TimingGraph, ck_pins: np.ndarray, clock=None):
    """Arrival time and slew of the capturing clock edge at ``ck_pins``.

    ``clock`` is a propagated :class:`~repro.sta.clock.ClockArrival`
    (default: the ideal clock - zero insertion delay, the library slew).
    """
    if clock is None:
        return 0.0, np.full(len(ck_pins), graph.clock_slew)
    return clock.at[ck_pins], clock.slew[ck_pins]


def endpoint_rat(
    graph: TimingGraph,
    slew: np.ndarray,
    idx: Optional[np.ndarray] = None,
    clock=None,
    grad: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Required arrival times at the timing endpoints.

    ``idx`` indexes ``graph.endpoint_pins`` (default: all - setup checks
    first, then output ports); ``clock`` as in :func:`capture_clock`.
    Returns ``(rat, dsetup_dslew)``: the ``(len(idx), 2)`` required times
    ``T + at_ck - setup(slew_D, slew_ck)`` / ``T - output_delay`` and,
    with ``grad``, the slew derivative of the setup time per selected
    setup check (zero where the slew clip is active, which makes the
    lookup constant; ``None`` without ``grad``).
    """
    n_setup = len(graph.setup_d)
    if idx is None:
        idx = np.arange(graph.n_endpoints)
    period = graph.design.constraints.clock_period
    is_setup = idx < n_setup
    k = idx[is_setup]
    rat = np.empty((len(idx), 2))
    rat[~is_setup] = (period - graph.po_output_delay[idx[~is_setup] - n_setup])[:, None]
    ck_at, ck_slew = capture_clock(graph, graph.setup_ck[k], clock)
    slew_raw = slew[graph.setup_d[k]].T
    query = graph.setup_lut[k].T, np.clip(slew_raw, 0.0, SLEW_CLIP_MAX), ck_slew
    dsetup_dslew = None
    if grad:
        setup_time, dsu_ds, _ = graph.lutbank.lookup_with_grad(*query)
        clipped = (slew_raw < 0.0) | (slew_raw > SLEW_CLIP_MAX)
        dsetup_dslew = np.where(clipped, 0.0, dsu_ds).T
    else:
        setup_time = graph.lutbank.lookup(*query)
    rat[is_setup] = (period + ck_at - setup_time).T
    return rat, dsetup_dslew
