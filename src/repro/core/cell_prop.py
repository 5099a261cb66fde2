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

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..contracts import differentiable
from ..sta.graph import CellLevel
from ..sta.nldm import LutBank
from .scatter import scatter_accumulate
from .smoothing import segment_lse_max, segment_max

__all__ = [
    "SLEW_CLIP_MAX",
    "SweepTape",
    "cell_forward_level",
    "cell_backward_level",
]

#: Upper bound applied to slews before LUT queries.  Unreached fan-ins
#: carry sentinel values, so queries are clamped to the LUT's sane range
#: (their AT sentinel still dominates the merge); where the clamp is
#: active the slew derivative of the lookup is zero.
SLEW_CLIP_MAX = 1e6


class SweepTape(NamedTuple):
    """Per-contribution record of one forward sweep.

    Row 0 of the ``(2, n_contribs)`` arrays belongs to the delay table,
    row 1 to the slew table.
    """

    cand: np.ndarray  # AT(u) + Delay_u(v) | Slew_u(v): the merge candidates
    delay: np.ndarray  # (n_contribs,) Delay_u(v)
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
    driver_load: np.ndarray,
    merge: str,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape: SweepTape,
) -> None:
    """Forward cell propagation for one level (in place).

    ``lv`` is a level of the graph's :class:`LevelPlan` (or of a
    restriction of it); ``at``/``slew`` are the flat ``(2 * n_pins,)``
    views of the timer's arrays and ``driver_load`` the per-pin net load.
    ``merge`` is ``"max"``, ``"min"`` or ``"lse"`` (smoothed by
    ``gamma``).  ``tape`` receives the merge candidates and arc delays,
    and the LUT partials the backward pass needs if it has room for them.
    """
    slew_raw = slew[lv.src]
    slew_in = np.minimum(np.maximum(slew_raw, 0.0), SLEW_CLIP_MAX)
    load = driver_load[lv.pin]
    if tape.d_dslew is None:
        cand = lutbank.lookup(lv.lut, slew_in, load)
    else:
        cand, d_ds, d_dl = lutbank.lookup_with_grad(lv.lut, slew_in, load)
        # Where the clip is active the lookup sees a constant slew, so the
        # recorded slew-derivatives must vanish (else backward disagrees
        # with finite differences of the clipped forward).
        clipped = (slew_raw < 0.0) | (slew_raw > SLEW_CLIP_MAX)
        if clipped.any():
            d_ds = np.where(clipped, 0.0, d_ds)
        tape.d_dslew[:, lv.sl] = d_ds
        tape.d_dload[:, lv.sl] = d_dl
    tape.delay[lv.sl] = cand[0]
    cand[0] += at[lv.src]
    tape.cand[:, lv.sl] = cand

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


def cell_backward_level(
    lv: CellLevel,
    weights: np.ndarray,
    tape_d_dslew: np.ndarray,
    grads: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Backward cell propagation for one level (Equation (12), in place).

    ``weights`` are the ``(2, n_contribs)`` merge weights of the AT and
    slew candidates (the softmax identity ``w_i = exp((x_i - LSE) /
    gamma)``, which does not depend on the seed).  ``grads`` holds one
    ``(g_at, g_slew, g_cand)`` triple per seed: flat ``(2 * n_pins,)``
    gradient arrays whose entries at the level's sinks must be final, and
    a ``(2, n_contribs)`` buffer that receives the candidate gradients
    (the caller folds them into the net loads after the sweep, Eq. 12e).
    Accumulates into the source-pin AT/slew gradients.
    """
    w = weights[:, lv.sl]
    d_ds = tape_d_dslew[:, lv.sl]
    for g_at, g_slew, g_cand in grads:
        # Gradient over (AT(u) + Delay_u(v)) and over Slew_u(v).
        g = g_cand[:, lv.sl]
        np.multiply(w[0], g_at[lv.dst], out=g[0])
        np.multiply(w[1], g_slew[lv.dst], out=g[1])
        # AT(u) receives the merge weight directly (Eq. 12a).
        scatter_accumulate(g_at, lv.src, g[0])
        # Slew(u) via both LUT x-derivatives (Eq. 12d).
        scatter_accumulate(g_slew, lv.src, g[0] * d_ds[0] + g[1] * d_ds[1])
