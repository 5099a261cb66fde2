"""The levelised propagation engine shared by all three timers.

The paper's timer *is* the golden STA with ``max`` swapped for
``LSE_gamma`` (Equation (5)) on levels that never depend on placement
(Section 3.3).  :func:`propagate` is that one sweep: golden STA (late
``max``, early ``min``) and the differentiable timer (``LSE``, with the
LUT partials taped for the backward pass) both call it over the graph's
shared :class:`~repro.sta.graph.LevelPlan`.  :func:`endpoint_slacks` and
:func:`endpoint_required` are the required-time side of the endpoint
slacks they both report (the compiled post-pass,
:func:`repro.core.sweep.endpoint_slacks`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sta.graph import LevelPlan, TimingGraph
from ..sta.nldm import LutBank
from . import sweep
from .cell_prop import SLEW_CLIP_MAX, SweepTape
from .sweep import sweep_forward

__all__ = [
    "propagate", "start_state", "capture_clock", "endpoint_slacks",
    "endpoint_required",
]


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
    start_at, start_slew = (plan.start_at, plan.start_slew) if start is None else start
    return sweep.start_state(plan, fill_at, fill_slew, start_at, start_slew)


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
    per-pin Elmore outputs of :func:`repro.sta.elmore.design_elmore`.
    Fan-ins merge with ``merge`` - ``"max"``, ``"min"`` or ``"lse"``
    smoothed by ``gamma``.  Returns the per-contribution tape: the merge
    candidates, the arc delays under an exact merge (the required-time
    pass of golden STA reads them) and the LUT partials if ``partials``.

    The level loop is one compiled sweep
    (:func:`repro.core.sweep.sweep_forward`), which places every cell
    arc on its tables at the load of its sink pin and the slew its level
    has just computed.
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
    sweep_forward(
        plan, lutbank, net_delay, impulse2, driver_load, at.reshape(-1),
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


def endpoint_slacks(
    graph: TimingGraph, at: np.ndarray, slew: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The differentiable timer's post-pass under the ideal clock.

    Returns ``(ep_slack_t, dsetup_dslew)``: the ``(n_endpoints, 2)``
    slacks ``rat - at`` of every endpoint (setup checks first, then
    output ports; ``rat = T - setup(slew_D, slew_ck)`` /
    ``T - output_delay``) and the ``(n_setup, 2)`` slew derivative of the
    setup times, zero where the slew clip is active (the lookup is
    constant there).
    """
    n_setup = len(graph.setup_d)
    ep_slack_t = np.empty((graph.n_endpoints, 2))
    dsetup_dslew = np.empty((n_setup, 2))
    sweep.endpoint_slacks(
        graph.plan, graph.lutbank, graph.design.constraints.clock_period,
        SLEW_CLIP_MAX, at.reshape(-1), slew.reshape(-1),
        ep_slack_t=ep_slack_t, dsetup=dsetup_dslew,
    )
    return ep_slack_t, dsetup_dslew


def endpoint_required(
    graph: TimingGraph, slew: np.ndarray, rat: np.ndarray, clock=None
) -> None:
    """Golden STA's required times at the endpoints, into the
    ``(n_pins, 2)`` ``rat``: ``T + at_ck - setup(slew_D, slew_ck)`` at a
    setup check, ``T - output_delay`` at an output port; ``clock`` as in
    :func:`capture_clock`."""
    ck_at = ck_slew = None
    if clock is not None:
        ck_at, ck_slew = capture_clock(graph, graph.setup_ck, clock)
    sweep.endpoint_slacks(
        graph.plan, graph.lutbank, graph.design.constraints.clock_period,
        SLEW_CLIP_MAX, None, slew.reshape(-1), ck_at, ck_slew,
        rat=rat.reshape(-1),
    )
