"""Differentiable net-delay propagation - Equations (9)-(10) of the paper.

A net arc carries the signal from a net's driver pin to one sink pin:

    AT(v)   = AT(u) + Delay(v)
    Slew(v) = sqrt(Slew(u)^2 + Impulse(v)^2)

Each pin has at most one fan-in net arc, so no smoothing is needed here;
the backward kernel distributes the sink gradients onto the driver AT/slew
and onto the Elmore delay / squared-impulse of the sink (Equation (10)).
Both kernels operate on the net arcs of one level, over flat
``pin * 2 + transition`` slots.
"""

from __future__ import annotations

import numpy as np

from ..contracts import differentiable
from ..sta.graph import NetLevel
from .scatter import scatter_accumulate

__all__ = ["net_forward_level", "net_backward_level"]


@differentiable(
    backward="repro.core.net_prop.net_backward_level",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def net_forward_level(
    lv: NetLevel,
    arc_delay: np.ndarray,
    arc_impulse2: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Forward net propagation for the arcs of one level (in place).

    ``at``/``slew`` are the flat ``(2 * n_pins,)`` views of the timer's
    arrays; ``arc_delay`` and ``arc_impulse2`` hold the Elmore delay and
    squared impulse at the sink of every (arc, transition) of the sweep,
    gathered once per call.
    """
    at[lv.sink_flat] = at.take(lv.src_flat) + arc_delay[lv.sl2]
    slew[lv.sink_flat] = np.sqrt(slew.take(lv.src_flat) ** 2 + arc_impulse2[lv.sl2])


def net_backward_level(
    lv: NetLevel,
    slew_ratio: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    seed_slots: np.ndarray,
) -> None:
    """Backward net propagation for one level (Equation (10), in place).

    ``lv`` is the level's slice of the graph's :class:`LevelPlan` and
    ``slew_ratio`` the flat per-(arc, transition) ``Slew(u) / Slew(v)``.
    ``g_at``/``g_slew`` are the flat gradients of all seeds, laid out as
    for :func:`~repro.core.cell_prop.cell_backward_level`; the sink
    entries must already be final (higher levels processed first) and
    the driver entries are accumulated into.  Sink gradients never change
    again, so the caller folds them into the Elmore delay / squared
    impulse gradients once, after the sweep.
    """
    sink = (seed_slots + lv.sink_flat).reshape(-1)
    src = (seed_slots + lv.src_flat).reshape(-1)
    scatter_accumulate(g_at, src, g_at.take(sink))
    scaled = g_slew.take(sink).reshape(len(seed_slots), -1) * slew_ratio[lv.sl2]
    scatter_accumulate(g_slew, src, scaled.reshape(-1))
