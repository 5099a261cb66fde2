"""Cell-arc propagation - Equations (11)-(12) of the paper.

Cell arcs are characterised by NLDM lookup tables indexed by (input slew,
output load).  Fan-in arrival times and slews are merged per sink slot:

    Delay_u(v) = LUT_cell(Slew(u), Load(v))
    Slew_u(v)  = LUT_transition(Slew(u), Load(v))
    AT(v)      = merge over u of { AT(u) + Delay_u(v) }
    Slew(v)    = merge over u of { Slew_u(v) }

The merge is the caller's: the exact ``max`` (late) or ``min`` (early) of
golden STA, or the smoothed maximum ``LSE_gamma`` of Equation (5), which is
the only difference between the golden and the differentiable timer.  The
backward kernel uses the softmax identity ``w_i = exp((x_i - LSE) / gamma)``
to recover merge weights without storing them, then chains through the
LUT-interpolation gradients of Figure 6 into source slews and net loads
(Equation (12)).  Kernels operate on one level of the graph's
:class:`~repro.sta.graph.LevelPlan`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..contracts import differentiable
from ..sta.graph import CellLevel
from ..sta.nldm import LoadSide, LutBank
from .scatter import scatter_accumulate
from .smoothing import segment_lse_max, segment_max

__all__ = [
    "SLEW_CLIP_MAX",
    "clip_slew",
    "slew_clipped",
    "SweepTape",
    "cell_forward_level",
    "zero_clipped_partials",
    "cell_backward_level",
]

#: Upper bound applied to slews before LUT queries.  Unreached fan-ins
#: carry sentinel values, so queries are clamped to the LUT's sane range
#: (their AT sentinel still dominates the merge); where the clamp is
#: active the slew derivative of the lookup is zero.
SLEW_CLIP_MAX = 1e6


def clip_slew(slew: np.ndarray, bound: float) -> np.ndarray:
    """``slew`` clamped to ``[0, bound]``, the range LUT queries are made in."""
    return np.minimum(np.maximum(slew, 0.0), bound)


def slew_clipped(slew: np.ndarray, bound: float) -> np.ndarray:
    """Where :func:`clip_slew` is active (the lookup sees a constant)."""
    return (slew < 0.0) | (slew > bound)


class SweepTape(NamedTuple):
    """Per-contribution record of one forward sweep.

    Row 0 of the ``(2, n_contribs)`` arrays belongs to the delay table,
    row 1 to the slew table.  All fields are views of one block that the
    cell levels fill in (their slices tile the contributions), so it
    starts uninitialised.
    """

    cand: np.ndarray  # AT(u) + Delay_u(v) | Slew_u(v): the merge candidates
    delay: Optional[np.ndarray]  # (n_contribs,) Delay_u(v), for exact merges
    d_dslew: Optional[np.ndarray]  # LUT partials, when asked for
    d_dload: Optional[np.ndarray]


@differentiable(
    backward="repro.core.cell_prop.cell_backward_level",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def cell_forward_level(
    lv: CellLevel,
    lutbank: LutBank,
    load: LoadSide,
    merge: str,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape: SweepTape,
) -> None:
    """Forward cell propagation for one level (in place).

    ``lv`` is a level of the graph's :class:`LevelPlan`; ``at``/``slew``
    are the flat ``(2 * n_pins,)`` views of the timer's arrays and
    ``load`` the level's slice of the sweep's load-side lookup.
    ``merge`` is ``"max"``, ``"min"`` or ``"lse"`` (smoothed by
    ``gamma``).  ``tape`` receives the merge candidates, and the arc
    delays and the LUT partials where it has rows for them
    (:func:`zero_clipped_partials` finishes the partials after the
    sweep).
    """
    sl = lv.sl
    partials = None
    if tape.d_dslew is not None:
        partials = tape.d_dslew[:, sl], tape.d_dload[:, sl]
    slew_in = clip_slew(slew[lv.src], SLEW_CLIP_MAX)
    cand = lutbank.interpolate(lv.query, slew_in, load, partials)
    if tape.delay is not None:
        tape.delay[sl] = cand[0]
    cand[0] += at[lv.src]
    tape.cand[:, sl] = cand

    # One merge for AT and slew candidates together, over the level's own
    # compact segments (not the whole pin table).
    n = len(lv.touched)
    flat = cand.reshape(-1)
    if merge == "lse":
        merged = segment_lse_max(flat, lv.seg, 2 * n, gamma)
    elif merge == "max":
        merged = segment_max(flat, lv.seg, 2 * n)
        # Late slews merge from the initial 0, not from the AT sentinel.
        np.maximum(merged[n:], 0.0, out=merged[n:])
    elif merge == "min":
        merged = -segment_max(-flat, lv.seg, 2 * n)
    else:
        raise ValueError(f"unknown merge {merge!r}; expected max, min or lse")
    at[lv.touched] = merged[:n]
    slew[lv.touched] = merged[n:]


def zero_clipped_partials(
    src: np.ndarray, slew: np.ndarray, tape: SweepTape
) -> None:
    """Zero the taped slew partials of contributions whose slew was clipped.

    Where the clip is active the lookup sees a constant slew, so the
    recorded slew-derivatives must vanish (else backward disagrees with
    finite differences of the clipped forward).  A source's slew is final
    once its level is swept, so this runs once, after the sweep, over the
    ``src`` slots of all contributions.
    """
    clipped = slew_clipped(slew[src], SLEW_CLIP_MAX)
    if clipped.any():
        tape.d_dslew[:, clipped] = 0.0


def cell_backward_level(
    lv: CellLevel,
    weights: np.ndarray,
    tape_d_dslew: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    seed_slots: np.ndarray,
) -> None:
    """Backward cell propagation for one level (Equation (12), in place).

    ``weights`` are the ``(2, n_contribs)`` merge weights of the AT and
    slew candidates (the softmax identity ``w_i = exp((x_i - LSE) /
    gamma)``, which does not depend on the seed).  ``g_at``/``g_slew``
    are the flat gradients of all seeds, seed ``s`` in the ``2 * n_pins``
    slots from ``seed_slots[s]`` (an ``(n_seeds, 1)`` column); their
    entries at the level's sinks must be final.  Accumulates into the
    source-pin AT/slew gradients of every seed at once.
    """
    w = weights[:, lv.sl]
    d_ds = tape_d_dslew[:, lv.sl]
    n_seeds = len(seed_slots)
    dst = (seed_slots + lv.dst).reshape(-1)
    src = (seed_slots + lv.src).reshape(-1)
    # Gradient over (AT(u) + Delay_u(v)) and over Slew_u(v).
    g0 = g_at.take(dst).reshape(n_seeds, -1) * w[0]
    g1 = g_slew.take(dst).reshape(n_seeds, -1) * w[1]
    # AT(u) receives the merge weight directly (Eq. 12a).
    scatter_accumulate(g_at, src, g0.reshape(-1))
    # Slew(u) via both LUT x-derivatives (Eq. 12d).
    scatter_accumulate(g_slew, src, (g0 * d_ds[0] + g1 * d_ds[1]).reshape(-1))
