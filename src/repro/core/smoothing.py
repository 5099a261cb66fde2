"""Log-Sum-Exp smoothing of the non-smooth STA reductions (Section 3.2).

STA merges fan-in arrival times with ``max``/``min``; a direct gradient
would flow through only the single most critical path, causing oscillation.
Following Equation (5) of the paper, ``max`` is replaced by

    LSE_gamma(x_1..x_n) = gamma * log(sum_i exp(x_i / gamma))

and ``min(x) = -LSE_gamma(-x)``.  All kernels here are computed in shifted
(overflow-safe) form.  The levelised timers merge grouped candidates in
their compiled sweep (``core/sweep.c``); the NumPy segment forms it
replaced are kept in ``tests/reference_sweep.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..contracts import differentiable

__all__ = [
    "lse_max",
    "lse_min",
    "lse_max_grad",
    "soft_clamp_neg",
    "soft_clamp_neg_grad",
]


@differentiable(
    backward="repro.core.smoothing.lse_max_grad",
    gradcheck="tests/test_smoothing.py::TestLseGrad::test_matches_finite_difference",
)
def lse_max(values: np.ndarray, gamma: float, axis=None):
    """Smoothed maximum ``gamma * log(sum(exp(x / gamma)))`` (shifted)."""
    values = np.asarray(values, dtype=np.float64)
    m = np.max(values, axis=axis, keepdims=True)
    out = m + gamma * np.log(
        np.sum(np.exp((values - m) / gamma), axis=axis, keepdims=True)
    )
    return np.squeeze(out, axis=axis) if axis is not None else float(out.reshape(()))


def lse_min(values: np.ndarray, gamma: float, axis=None):
    """Smoothed minimum: ``-LSE_gamma(-x)`` (the paper's min transform)."""
    neg = lse_max(-np.asarray(values, dtype=np.float64), gamma, axis=axis)
    return -neg


def lse_max_grad(values: np.ndarray, gamma: float, axis=None) -> np.ndarray:
    """Gradient of :func:`lse_max` - the softmax weights of the inputs."""
    values = np.asarray(values, dtype=np.float64)
    m = np.max(values, axis=axis, keepdims=True)
    e = np.exp((values - m) / gamma)
    return e / np.sum(e, axis=axis, keepdims=True)


@differentiable(
    backward="repro.core.smoothing.soft_clamp_neg_grad",
    gradcheck="tests/test_smoothing.py::TestSoftClampNeg::test_grad_matches_fd",
)
def soft_clamp_neg(slack: np.ndarray, gamma: float) -> np.ndarray:
    """Smoothed ``min(0, slack)`` = ``-gamma * softplus(-slack / gamma)``.

    This is the per-endpoint term of the smoothed TNS of Equation (2):
    for very negative slack it approaches ``slack``; for very positive
    slack it approaches 0.
    """
    z = -np.asarray(slack, dtype=np.float64) / gamma
    # softplus(z) = log(1 + exp(z)), computed stably.
    softplus = np.where(z > 30, z, np.log1p(np.exp(np.minimum(z, 30))))
    return -gamma * softplus


def soft_clamp_neg_grad(slack: np.ndarray, gamma: float) -> np.ndarray:
    """Derivative of :func:`soft_clamp_neg` w.r.t. slack: sigmoid(-s/gamma)."""
    z = -np.asarray(slack, dtype=np.float64) / gamma
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out