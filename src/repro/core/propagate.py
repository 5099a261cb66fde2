"""The levelised propagation engine shared by all three timers.

The paper's timer *is* the golden STA with ``max`` swapped for
``LSE_gamma`` (Equation (5)) on levels that never depend on placement
(Section 3.3).  :func:`propagate` is that one sweep: golden STA (late
``max``, early ``min``) and the differentiable timer (``LSE``, with the
LUT partials taped for the backward pass) both call it over the graph's
shared :class:`~repro.sta.graph.LevelPlan`.  :func:`endpoint_rat` is the
required-time side of the endpoint slacks they both report.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sta.graph import LevelPlan, TimingGraph
from ..sta.nldm import LutBank
from .cell_prop import SLEW_CLIP_MAX, SweepTape, clip_slew, slew_clipped
from .sweep import sweep_forward

__all__ = ["propagate", "start_state", "capture_clock", "endpoint_rat"]


def start_state(
    plan: LevelPlan,
    fill_at: float,
    fill_slew: float,
    start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh ``(n_pins, 2)`` arrival-time and slew arrays for a sweep.

    The fill values everywhere but at the start pins, which hold the
    graph's boundary conditions - or those of ``start``, ``(at, slew)``
    rows aligned with ``plan.start_pins`` (a propagated clock's launch
    arrivals).
    """
    at = np.full((plan.n_pins, 2), fill_at)
    slew = np.full((plan.n_pins, 2), fill_slew)
    start_at, start_slew = (plan.start_at, plan.start_slew) if start is None else start
    at[plan.start_pins] = start_at
    slew[plan.start_pins] = start_slew
    return at, slew


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
) -> SweepTape:
    """Sweep arrival times and slews forward over the levels (in place).

    ``at``/``slew`` are ``(n_pins, 2)`` and hold the boundary values at the
    start pins.  ``net_delay``/``impulse2``/``driver_load`` are the
    per-pin Elmore outputs of :func:`repro.sta.elmore.pin_elmore`.
    Fan-ins merge with ``merge`` - ``"max"``, ``"min"`` or ``"lse"``
    smoothed by ``gamma``.  Returns the per-contribution tape: the merge
    candidates, the arc delays under an exact merge (the required-time
    pass of golden STA reads them) and the LUT partials if ``partials``.

    Every load is known before the sweep starts, so all cell arcs are
    placed on the load axis of their tables here, once; the level loop
    itself is one compiled sweep (:func:`repro.core.sweep.sweep_forward`)
    that locates the slews a level has just computed.
    """
    n = plan.n_contribs
    # One block, rows filled level by level: the cell levels' slices tile
    # ``[0, n)``, so no row is read before its level writes it.
    exact = merge != "lse"
    block = np.empty((2 + (1 if exact else 0) + (4 if partials else 0), n))
    tape = SweepTape(
        block[:2],
        block[2] if exact else None,
        block[-4:-2] if partials else None,
        block[-2:] if partials else None,
    )
    load = lutbank.locate_load(plan.query, driver_load[plan.c_pin])
    sweep_forward(
        plan, lutbank, load, net_delay, impulse2, at.reshape(-1),
        slew.reshape(-1), merge, gamma, tape,
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

    What does not depend on the placement comes from the plan's
    :class:`~repro.sta.graph.EndpointTables`; under the ideal clock that
    includes the clock-slew side of every setup lookup.
    """
    tables = graph.plan.endpoints
    bank = graph.lutbank
    n_setup = len(graph.setup_d)
    period = graph.design.constraints.clock_period
    if idx is None:
        n = graph.n_endpoints
        setup = ports = slice(None)  # which checks / ports
        setup_rows, port_rows = slice(0, n_setup), slice(n_setup, n)
    else:
        n = len(idx)
        setup_rows = np.flatnonzero(idx < n_setup)
        port_rows = np.flatnonzero(idx >= n_setup)
        setup, ports = idx[setup_rows], idx[port_rows] - n_setup
    rat = np.empty((n, 2))
    rat[port_rows] = (period - graph.po_output_delay[ports])[:, None]

    query = bank.rebind(tables.setup_query, setup)
    if clock is None:
        ck_at, load = 0.0, tables.setup_load.at(setup)
    else:
        ck_at, ck_slew = capture_clock(graph, graph.setup_ck[setup], clock)
        load = bank.locate_load(query, ck_slew)
    slew_raw = slew.reshape(-1).take(tables.slots[:n_setup][setup]).T
    slew_in = clip_slew(slew_raw, SLEW_CLIP_MAX)
    dsetup_dslew = None
    if grad:
        partials = np.empty(slew_raw.shape), np.empty(slew_raw.shape)
        setup_time = bank.interpolate(query, slew_in, load, partials)
        clipped = slew_clipped(slew_raw, SLEW_CLIP_MAX)
        dsetup_dslew = np.where(clipped, 0.0, partials[0]).T
    else:
        setup_time = bank.interpolate(query, slew_in, load)
    rat[setup_rows] = (period + ck_at - setup_time).T
    return rat, dsetup_dslew
