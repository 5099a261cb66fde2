"""The smoothed timing objective of Equation (6).

:class:`TimingObjective` packages the differentiable timer for consumption
by the global placer: it owns the Steiner-forest cache (FLUTE-substitute
calls happen every ``rsmt_period`` iterations, with Figure-4 coordinate
tracking in between), ramps the term weights ``t1``/``t2`` by a fixed
factor per iteration as the paper does (+1%/iteration), and returns the
gradient of ``t1 * (-TNS_gamma) + t2 * (-WNS_gamma)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..netlist.design import Design
from ..route.rsmt import build_forest_from_pins
from ..route.tree import Forest
from ..sta.graph import TimingGraph
from ..telemetry.events import current_recorder
from .difftimer import DifferentiableTimer

__all__ = ["TimingObjectiveOptions", "TimingObjective"]


@dataclass
class TimingObjectiveOptions:
    """Hyper-parameters of the timing term (paper Section 4 defaults).

    The paper sets ``gamma ~ 100`` ps, ``t1 ~ 0.01``, ``t2 ~ 0.0001`` on
    the ICCAD 2015 designs and increases ``t1``/``t2`` by 1% per iteration
    from roughly the 100th iteration on.  The defaults here are the same
    shape re-scaled to the synthetic suite's delay ranges.
    """

    t1: float = 0.02  # TNS weight (objective value reporting, Eq. (6))
    t2: float = 0.01  # WNS weight (objective value reporting, Eq. (6))
    ramp: float = 1.01  # per-iteration multiplicative increase
    gamma: float = 20.0  # LSE smoothing, in ps
    start_iteration: int = 100
    rsmt_period: int = 10  # rebuild Steiner trees every N iterations
    # Per-term gradient normalisation: each term's gradient is rescaled to
    # the given fraction of the wirelength-gradient L1 norm (then ramped).
    # This is the pragmatic version of the "dynamic updating strategies
    # for timing weights" the paper lists as future work: with ~100
    # endpoints instead of superblue's ~100k, fixed t1/t2 leave the
    # single-path WNS gradient drowned by the TNS term.
    tns_grad_frac: float = 0.08
    wns_grad_frac: float = 0.05
    grad_frac_max: float = 0.25  # ceiling for each ramped fraction
    ramp_freeze_overflow: Optional[float] = 0.25  # stop ramping below this


def _percentile(values: np.ndarray, q: float) -> np.float64:
    """``np.percentile(values, q)`` of two or more NaN-free floats, ``q < 100``.

    The same order statistics and NumPy's own interpolation (``a + d * t``,
    from the upper neighbour when ``t >= 0.5``), so the same bits, without
    the wrapper's ~35 us of argument handling.  Equal to ``np.percentile``
    on NumPy 2.4.6, the version this was written against; on any other,
    ``tests/test_objective.py::TestSpikeClipPercentile`` says whether it
    still is.
    """
    virtual = (len(values) - 1) * (q / 100)
    lo = int(virtual)
    t = virtual - lo
    part = np.partition(values, (lo, lo + 1))
    a, b = part[lo], part[lo + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


class TimingObjective:
    """Stateful timing-gradient provider for :class:`GlobalPlacer`."""

    def __init__(
        self,
        design: Design,
        options: Optional[TimingObjectiveOptions] = None,
        graph: Optional[TimingGraph] = None,
    ) -> None:
        self.design = design
        self.options = options if options is not None else TimingObjectiveOptions()
        self.timer = DifferentiableTimer(
            design, graph=graph, gamma=self.options.gamma
        )
        self._forest: Optional[Forest] = None
        #: (x, y) the current forest was built from; checkpointed so a
        #: resumed run can rebuild the identical forest deterministically.
        self._forest_coords: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._iters_since_rsmt = 0
        self._frozen_k: Optional[int] = None
        self.n_rsmt_calls = 0
        self.n_rsmt_reuses = 0
        self.n_timer_calls = 0
        self.n_backward_calls = 0
        self._last_forest_reused = False

    # ------------------------------------------------------------------
    def forest_for(
        self, cell_x: np.ndarray, cell_y: np.ndarray, iteration: int
    ) -> Forest:
        """Return the cached forest, rebuilding on the RSMT period.

        Between rebuilds, Steiner points track their owner pins (the
        paper's Figure 4 reuse rule), so the forest stays valid while
        cells move.
        """
        if (
            self._forest is None
            or self._iters_since_rsmt >= self.options.rsmt_period
        ):
            self._rebuild(cell_x, cell_y, iteration)
        else:
            self.n_rsmt_reuses += 1
            # reprolint: allow[checkpoint-completeness] per-call transient flag, overwritten by every forest_for() call
            self._last_forest_reused = True
        self._iters_since_rsmt += 1
        return self._forest

    def _route(self, cell_x: np.ndarray, cell_y: np.ndarray) -> None:
        """The forest is a pure function of the cell coordinates kept here."""
        # reprolint: allow[checkpoint-completeness] rebuilt by set_state from the stored forest_coords
        self._forest = build_forest_from_pins(
            self.design, *self.design.pin_positions(cell_x, cell_y)
        )
        self._forest_coords = (cell_x.copy(), cell_y.copy())

    def _rebuild(
        self, cell_x: np.ndarray, cell_y: np.ndarray, iteration: int
    ) -> None:
        self._route(cell_x, cell_y)
        self._iters_since_rsmt = 0
        self.n_rsmt_calls += 1
        self._last_forest_reused = False
        recorder = current_recorder()
        if recorder is not None:
            recorder.counter(
                "rsmt_rebuilds", self.n_rsmt_calls, iteration=iteration
            )

    def weights_at(self, iteration: int) -> Tuple[float, float]:
        """Ramped (t1, t2) for the given placer iteration.

        The ramp freezes once the placer reports a density overflow below
        ``ramp_freeze_overflow`` (tracked via :meth:`observe_overflow`), so
        that the growing timing force does not fight the final spreading.
        """
        k = max(iteration - self.options.start_iteration, 0)
        if self._frozen_k is not None:
            k = min(k, self._frozen_k)
        ramp = self.options.ramp**k
        return self.options.t1 * ramp, self.options.t2 * ramp

    def observe_overflow(self, iteration: int, overflow: float) -> None:
        """Placer feedback used to freeze the t1/t2 ramp near convergence."""
        threshold = self.options.ramp_freeze_overflow
        if (
            threshold is not None
            and self._frozen_k is None
            and overflow < threshold
        ):
            self._frozen_k = max(iteration - self.options.start_iteration, 0)

    # ------------------------------------------------------------------
    # Checkpoint support (registered as a placer state provider so that
    # resuming a timing-driven run replays the exact same RSMT schedule -
    # required for bit-identical trajectories).
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        fc = self._forest_coords
        return {
            "forest_coords": None if fc is None else (fc[0].copy(), fc[1].copy()),
            "iters_since_rsmt": self._iters_since_rsmt,
            "frozen_k": self._frozen_k,
            "n_rsmt_calls": self.n_rsmt_calls,
            "n_rsmt_reuses": self.n_rsmt_reuses,
            "n_timer_calls": self.n_timer_calls,
            "n_backward_calls": self.n_backward_calls,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        # Checkpoints written before the dirty-net path was deleted also
        # carry ``built_pin_coords`` / ``n_dirty_nets`` / ``n_rebuilt_nets``;
        # with that path off they restate ``forest_coords`` and are ignored.
        fc = state.get("forest_coords")
        if fc is not None:
            # The build is deterministic in its inputs, so rebuilding from
            # the stored cell coordinates reproduces the checkpointed
            # forest without pickling topology.
            self._route(*fc)
        else:
            self._forest = None
            self._forest_coords = None
        self._iters_since_rsmt = int(state.get("iters_since_rsmt", 0))
        self._frozen_k = state.get("frozen_k")
        self.n_rsmt_calls = int(state.get("n_rsmt_calls", 0))
        self.n_rsmt_reuses = int(state.get("n_rsmt_reuses", 0))
        self.n_timer_calls = int(state.get("n_timer_calls", 0))
        self.n_backward_calls = int(state.get("n_backward_calls", 0))

    # ------------------------------------------------------------------
    def __call__(
        self,
        iteration: int,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        wl_grad_l1: Optional[float] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, Dict[str, float]]]:
        """Placer hook: gradient of the timing term, or None before start.

        When ``wl_grad_l1`` is given, each term's gradient is rescaled to
        its ramped fraction of the wirelength-gradient norm and per-cell
        spikes are clipped - the pragmatic stand-in for the timing-weight
        scheduling and gradient preconditioning the paper leaves as future
        work; without it the ramped timing term can overpower the
        wirelength objective and destabilise the Nesterov iterates.
        """
        opts = self.options
        if iteration < opts.start_iteration:
            return None
        forest = self.forest_for(cell_x, cell_y, iteration)
        tape = self.timer.forward(cell_x, cell_y, forest)
        self.n_timer_calls += 1

        k = max(iteration - opts.start_iteration, 0)
        if self._frozen_k is not None:
            k = min(k, self._frozen_k)
        ramp = opts.ramp**k
        f_tns = min(opts.tns_grad_frac * ramp, opts.grad_frac_max)
        f_wns = min(opts.wns_grad_frac * ramp, opts.grad_frac_max)

        # Both term gradients from one backward sweep, each rescaled to
        # its fraction of the wirelength-gradient norm.
        g_tns, g_wns = self.timer.backward(
            tape, seeds=[(-1.0, 0.0), (0.0, -1.0)]
        )
        self.n_backward_calls += 2

        def normalized(pair, frac):
            gx, gy = pair
            norm = float(np.abs(gx).sum() + np.abs(gy).sum())
            if wl_grad_l1 is None or wl_grad_l1 <= 0 or norm <= 1e-12:
                return gx, gy
            s = frac * wl_grad_l1 / norm
            return gx * s, gy * s

        tx, ty = normalized(g_tns, f_tns)
        wx, wy = normalized(g_wns, f_wns)
        g_x = tx + wx
        g_y = ty + wy

        # Per-cell spike clipping: cells on the most critical paths can
        # receive gradients orders of magnitude above the bulk; clamp each
        # cell's gradient magnitude to a high percentile so the optimizer
        # does not overshoot on a handful of coordinates.
        mag = np.hypot(g_x, g_y)
        nonzero = mag[mag > 0]
        if len(nonzero) > 8:
            limit = float(_percentile(nonzero, 98.0))
            over = mag > limit
            if np.any(over):
                shrink = limit / mag[over]
                g_x[over] *= shrink
                g_y[over] *= shrink
        metrics = {
            "tns_smoothed": tape.tns,
            "wns_smoothed": tape.wns,
            "tns_frac": f_tns,
            "wns_frac": f_wns,
            "lse_saturation": tape.lse_saturation,
            "rsmt_cache_hit": 1.0 if self._last_forest_reused else 0.0,
        }
        return g_x, g_y, metrics
