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
backward pass uses the softmax identity ``w_i = exp((x_i - LSE) / gamma)``
to recover merge weights without storing them, then chains through the
LUT-interpolation gradients of Figure 6 into source slews and net loads
(Equation (12)).  Both directions run level by level in the compiled sweep
(:mod:`repro.core.sweep`); this module holds what they share with the
Python side: the bound of the slew clip of every LUT query and the
sweep's tape.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = ["SLEW_CLIP_MAX", "SweepTape"]

#: Upper bound applied to slews before LUT queries.  Unreached fan-ins
#: carry sentinel values, so queries are clamped to the LUT's sane range
#: (their AT sentinel still dominates the merge); where the clamp is
#: active the slew derivative of the lookup is zero.
SLEW_CLIP_MAX = 1e6


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
