"""Differentiable net-delay propagation - Equations (9)-(10) of the paper.

A net arc carries the signal from a net's driver pin to one sink pin:

    AT(v)   = AT(u) + Delay(v)
    Slew(v) = sqrt(Slew(u)^2 + Impulse(v)^2)

Each pin has at most one fan-in net arc, so no smoothing is needed here;
the backward kernel distributes the sink gradients onto the driver AT/slew
and onto the Elmore delay / squared-impulse of the sink (Equation (10)).
Both kernels operate on the net arcs of one level.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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
    sinks: np.ndarray,
    srcs: np.ndarray,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Forward net propagation for the arcs of one level (in place).

    ``at``/``slew`` are the full ``(n_pins, 2)`` arrays; ``net_delay`` and
    ``impulse2`` are per-pin Elmore outputs at sink pins.
    """
    at[sinks] = at[srcs] + net_delay[sinks][:, None]
    slew[sinks] = np.sqrt(slew[srcs] ** 2 + impulse2[sinks][:, None])


def net_backward_level(
    lv: NetLevel,
    slew_ratio: np.ndarray,
    grads: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Backward net propagation for one level (Equation (10), in place).

    ``lv`` is the level's slice of the graph's :class:`LevelPlan` and
    ``slew_ratio`` the flat per-(arc, transition) ``Slew(u) / Slew(v)``.
    ``grads`` holds one flat ``(g_at, g_slew)`` pair per seed; the sink
    entries must already be final (higher levels processed first) and
    the driver entries are accumulated into.  Sink gradients never change
    again, so the caller folds them into the Elmore delay / squared
    impulse gradients once, after the sweep.
    """
    ratio = slew_ratio[lv.sl2]
    for g_at, g_slew in grads:
        scatter_accumulate(g_at, lv.src_flat, g_at[lv.sink_flat])
        scatter_accumulate(g_slew, lv.src_flat, ratio * g_slew[lv.sink_flat])
