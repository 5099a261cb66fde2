"""Log-Sum-Exp smoothing of the non-smooth STA reductions (Section 3.2).

STA merges fan-in arrival times with ``max``/``min``; a direct gradient
would flow through only the single most critical path, causing oscillation.
Following Equation (5) of the paper, ``max`` is replaced by

    LSE_gamma(x_1..x_n) = gamma * log(sum_i exp(x_i / gamma))

and ``min(x) = -LSE_gamma(-x)``.  All kernels here are computed in shifted
(overflow-safe) form, and segment variants merge grouped candidates via
scatter operations, which is how the levelised timers consume them.
"""

from __future__ import annotations

from typing import Tuple


from ..contracts import differentiable
from .backend import xp
from .scatter import scatter_add

__all__ = [
    "lse_max",
    "lse_min",
    "lse_max_grad",
    "soft_clamp_neg",
    "soft_clamp_neg_grad",
    "segment_max",
    "segment_lse_max",
    "segment_lse_weights",
]

_SENTINEL = -1e30


@differentiable(
    backward="repro.core.smoothing.lse_max_grad",
    gradcheck="tests/test_smoothing.py::TestLseGrad::test_matches_finite_difference",
)
def lse_max(values: xp.ndarray, gamma: float, axis=None):
    """Smoothed maximum ``gamma * log(sum(exp(x / gamma)))`` (shifted)."""
    values = xp.asarray(values, dtype=xp.float64)
    m = xp.max(values, axis=axis, keepdims=True)
    out = m + gamma * xp.log(
        xp.sum(xp.exp((values - m) / gamma), axis=axis, keepdims=True)
    )
    return xp.squeeze(out, axis=axis) if axis is not None else float(out.reshape(()))


def lse_min(values: xp.ndarray, gamma: float, axis=None):
    """Smoothed minimum: ``-LSE_gamma(-x)`` (the paper's min transform)."""
    neg = lse_max(-xp.asarray(values, dtype=xp.float64), gamma, axis=axis)
    return -neg


def lse_max_grad(values: xp.ndarray, gamma: float, axis=None) -> xp.ndarray:
    """Gradient of :func:`lse_max` - the softmax weights of the inputs."""
    values = xp.asarray(values, dtype=xp.float64)
    m = xp.max(values, axis=axis, keepdims=True)
    e = xp.exp((values - m) / gamma)
    return e / xp.sum(e, axis=axis, keepdims=True)


@differentiable(
    backward="repro.core.smoothing.soft_clamp_neg_grad",
    gradcheck="tests/test_smoothing.py::TestSoftClampNeg::test_grad_matches_fd",
)
def soft_clamp_neg(slack: xp.ndarray, gamma: float) -> xp.ndarray:
    """Smoothed ``min(0, slack)`` = ``-gamma * softplus(-slack / gamma)``.

    This is the per-endpoint term of the smoothed TNS of Equation (2):
    for very negative slack it approaches ``slack``; for very positive
    slack it approaches 0.
    """
    z = -xp.asarray(slack, dtype=xp.float64) / gamma
    # softplus(z) = log(1 + exp(z)), computed stably.
    softplus = xp.where(z > 30, z, xp.log1p(xp.exp(xp.minimum(z, 30))))
    return -gamma * softplus


def soft_clamp_neg_grad(slack: xp.ndarray, gamma: float) -> xp.ndarray:
    """Derivative of :func:`soft_clamp_neg` w.r.t. slack: sigmoid(-s/gamma)."""
    z = -xp.asarray(slack, dtype=xp.float64) / gamma
    out = xp.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + xp.exp(-z[pos]))
    ez = xp.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def segment_max(
    candidates: xp.ndarray, segment_ids: xp.ndarray, n_segments: int
) -> xp.ndarray:
    """Grouped hard maximum; groups with no candidates keep the sentinel.

    ``max`` is exact, so the grouped minimum is ``-segment_max(-x, ...)``
    bit for bit.
    """
    m = xp.full(n_segments, _SENTINEL, dtype=xp.float64)
    # reprolint: allow[no-scatter-add-at] the one audited scatter-max: 1-D contiguous target, exact in any fold order
    xp.maximum.at(m, segment_ids, candidates)
    return m


def segment_lse_max(
    candidates: xp.ndarray,
    segment_ids: xp.ndarray,
    n_segments: int,
    gamma: float,
    empty_value: float = _SENTINEL,
) -> xp.ndarray:
    """Grouped smoothed maximum via scatter-max + scatter-add.

    ``candidates[i]`` belongs to group ``segment_ids[i]``; groups with no
    candidates return ``empty_value``.  Implemented in shifted form so huge
    negative sentinels contribute zero weight rather than NaNs.
    """
    m = segment_max(candidates, segment_ids, n_segments)
    # candidates <= m, so the exponent lies in [-inf, 0]; the upper clamp
    # only matters for corrupted (non-finite) inputs, which must not
    # overflow.
    shifted = xp.exp(
        xp.minimum(xp.maximum((candidates - m[segment_ids]) / gamma, -700.0), 0.0)
    )
    s = scatter_add(segment_ids, shifted, n_segments)
    nonempty = s > 0
    return xp.where(
        nonempty, m + gamma * xp.log(xp.where(nonempty, s, 1.0)), empty_value
    )


def segment_lse_weights(
    candidates: xp.ndarray,
    segment_ids: xp.ndarray,
    smoothed: xp.ndarray,
    gamma: float,
) -> xp.ndarray:
    """Softmax weight of each candidate given the group's smoothed max.

    Uses the identity ``w_i = exp((x_i - LSE) / gamma)``, which already
    embeds the normalisation, so no second reduction is needed.
    """
    return xp.exp(
        xp.minimum(
            xp.maximum((candidates - smoothed[segment_ids]) / gamma, -700.0), 0.0
        )
    )
