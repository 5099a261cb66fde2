"""Differentiable cell-delay propagation - Equations (11)-(12) of the paper.

Cell arcs are characterised by NLDM lookup tables indexed by (input slew,
output load).  Fan-in arrival times and slews are merged with the smoothed
maximum of Equation (5):

    Delay_u(v) = LUT_cell(Slew(u), Load(v))
    Slew_u(v)  = LUT_transition(Slew(u), Load(v))
    AT(v)      = LSE_gamma over u of { AT(u) + Delay_u(v) }
    Slew(v)    = LSE_gamma over u of { Slew_u(v) }

The backward kernel uses the softmax identity ``w_i = exp((x_i - LSE) /
gamma)`` to recover merge weights without storing them, then chains through
the LUT-interpolation gradients of Figure 6 into source slews and net loads
(Equation (12)).  Kernels operate on one level of the graph's
:class:`~repro.sta.graph.LevelPlan`; per-contribution LUT values and partial
derivatives are recorded in the caller's tape arrays during the forward pass.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..contracts import differentiable
from ..sta.graph import CellLevel
from ..sta.nldm import LutBank
from .scatter import scatter_accumulate
from .smoothing import segment_lse_max

__all__ = [
    "SLEW_CLIP_MAX",
    "cell_forward_level",
    "cell_backward_level",
    "cell_forward_exact",
]

_SENTINEL = -1e30

#: Upper bound applied to slews before LUT queries.  Unreached fan-ins
#: carry sentinel values, so queries are clamped to the LUT's sane range;
#: where the clamp is active the slew derivative of the lookup is zero.
SLEW_CLIP_MAX = 1e6


@differentiable(
    backward="repro.core.cell_prop.cell_backward_level",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def cell_forward_level(
    lv: CellLevel,
    lutbank: LutBank,
    load: np.ndarray,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape_cand: np.ndarray,
    tape_d_dslew: np.ndarray,
    tape_d_dload: np.ndarray,
) -> None:
    """Forward cell propagation with LSE merge for one level (in place).

    ``lv`` is the level's slice of the graph's :class:`LevelPlan`;
    ``at``/``slew`` are the flat ``(2 * n_pins,)`` views of the timer's
    arrays and ``load`` the per-contribution sink load.  The ``tape_*``
    arrays are ``(2, n_contribs)``, row 0 for the delay table (AT
    candidates), row 1 for the slew table; they receive the candidate
    values and LUT partials needed by the backward pass.
    """
    slew_raw = slew[lv.src]
    slew_in = np.minimum(np.maximum(slew_raw, 0.0), SLEW_CLIP_MAX)
    cand, d_ds, d_dl = lutbank.lookup_with_grad(lv.lut, slew_in, load[lv.sl])
    # Where the clip is active the lookup sees a constant slew, so the
    # recorded slew-derivatives must vanish (else backward disagrees with
    # finite differences of the clipped forward).
    clipped = (slew_raw < 0.0) | (slew_raw > SLEW_CLIP_MAX)
    if clipped.any():
        d_ds = np.where(clipped, 0.0, d_ds)
    cand[0] += at[lv.src]
    tape_cand[:, lv.sl] = cand
    tape_d_dslew[:, lv.sl] = d_ds
    tape_d_dload[:, lv.sl] = d_dl

    # One merge for AT and slew candidates together, over the level's own
    # compact segments (not the whole pin table).
    n = len(lv.touched)
    merged = segment_lse_max(cand.reshape(-1), lv.seg, 2 * n, gamma)
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


def cell_forward_exact(  # reprolint: allow[backward-pair] exact hard-max sibling shared with the incremental engine; no gradient flows through it
    idx: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    tin: np.ndarray,
    tout: np.ndarray,
    lut_delay: np.ndarray,
    lut_slew: np.ndarray,
    lutbank: LutBank,
    driver_load: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Exact (hard-max) cell propagation over a batch of contributions.

    The non-smoothed sibling of :func:`cell_forward_level`, shared by the
    incremental engine's level sweep: ``idx`` selects any subset of the
    graph's contribution table whose sink pins all sit on one level, and
    the sinks' ``at``/``slew`` rows are recomputed from scratch with hard
    maxima (late mode).  Callers must pre-reset the sink rows to the
    ``-inf`` sentinel / zero slew before the call, since the kernel only
    scatter-maxes candidate values into them.
    """
    s, d = src[idx], dst[idx]
    ti, to = tin[idx], tout[idx]
    slew_in = np.clip(slew[s, ti], 0.0, SLEW_CLIP_MAX)
    load = driver_load[d]
    delay = lutbank.lookup(lut_delay[idx], slew_in, load)
    out_slew = lutbank.lookup(lut_slew[idx], slew_in, load)
    seg = d * 2 + to
    np.maximum.at(at.reshape(-1), seg, at[s, ti] + delay)
    np.maximum.at(slew.reshape(-1), seg, out_slew)
