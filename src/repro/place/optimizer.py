"""First-order optimizers for nonlinear placement.

:class:`NesterovOptimizer` follows the ePlace/DREAMPlace recipe: Nesterov
acceleration with a Barzilai-Borwein step size estimated from consecutive
lookahead iterates, plus step clamping for robustness.  It operates on
a flat parameter vector; masking of fixed cells is the caller's job
(their gradient entries are zero).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["NesterovOptimizer"]


def _project(x: np.ndarray, bounds: Optional[tuple]) -> np.ndarray:
    """Clip ``x`` into the box ``bounds = (lo, hi)`` in place, if there is
    one: ``np.clip(x, lo, hi, out=x)`` without its Python wrapper."""
    if bounds is not None:
        np.minimum(np.maximum(x, bounds[0], out=x), bounds[1], out=x)
    return x


class NesterovOptimizer:
    """Nesterov accelerated gradient with Barzilai-Borwein step size."""

    def __init__(
        self,
        x0: np.ndarray,
        lr: float,
        lr_min_ratio: float = 1e-3,
        lr_max_ratio: float = 20.0,
        bounds: Optional[tuple] = None,
    ) -> None:
        self.u = x0.astype(np.float64).copy()  # main iterate
        self.v = x0.astype(np.float64).copy()  # lookahead iterate
        self.a = 1.0
        self.lr = float(lr)
        self.lr_min = lr * lr_min_ratio
        self.lr_max = lr * lr_max_ratio
        self.bounds = bounds
        self._prev_v: Optional[np.ndarray] = None
        self._prev_grad: Optional[np.ndarray] = None

    @property
    def params(self) -> np.ndarray:
        """Point at which the caller should evaluate the gradient."""
        return self.v

    def restart(self, lr_scale: float = 0.5) -> None:
        """Drop momentum and shrink the step bounds (divergence recovery)."""
        self.v = self.u.copy()
        self.a = 1.0
        self._prev_v = None
        self._prev_grad = None
        self.lr_max = max(self.lr_max * lr_scale, self.lr_min)
        self.lr = min(self.lr * lr_scale, self.lr_max)

    def get_state(self) -> dict:
        """Complete serializable state (checkpoint/restart support)."""
        return {
            "kind": "nesterov",
            "u": self.u.copy(),
            "v": self.v.copy(),
            "a": self.a,
            "lr": self.lr,
            "lr_min": self.lr_min,
            "lr_max": self.lr_max,
            "prev_v": None if self._prev_v is None else self._prev_v.copy(),
            "prev_grad": (
                None if self._prev_grad is None else self._prev_grad.copy()
            ),
        }

    def set_state(self, state: dict) -> None:
        """Restore state captured by :meth:`get_state` (bit-exact resume)."""
        if state.get("kind") != "nesterov":
            raise ValueError(f"state is for optimizer {state.get('kind')!r}")
        self.u = state["u"].copy()
        self.v = state["v"].copy()
        self.a = float(state["a"])
        self.lr = float(state["lr"])
        self.lr_min = float(state["lr_min"])
        self.lr_max = float(state["lr_max"])
        pv, pg = state["prev_v"], state["prev_grad"]
        self._prev_v = None if pv is None else pv.copy()
        self._prev_grad = None if pg is None else pg.copy()

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Consume the gradient at ``params``; returns the new main iterate."""
        if self._prev_grad is not None:
            dv = self.v - self._prev_v
            dg = grad - self._prev_grad
            denom = float(dg @ dg)
            if np.isfinite(denom) and denom > 1e-20:
                bb = abs(float(dv @ dg)) / denom
                if np.isfinite(bb) and bb > 0:
                    self.lr = min(max(bb, self.lr_min), self.lr_max)
        self._prev_v = self.v.copy()
        self._prev_grad = grad.copy()

        # Both points are clipped into the feasible box: gradients are
        # evaluated at the lookahead, which must stay inside the die.
        u_next = _project(self.v - self.lr * grad, self.bounds)
        a_next = 0.5 * (1.0 + np.sqrt(4.0 * self.a * self.a + 1.0))
        self.v = _project(
            u_next + ((self.a - 1.0) / a_next) * (u_next - self.u), self.bounds
        )
        self.u = u_next
        self.a = a_next
        return self.u
