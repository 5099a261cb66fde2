"""The differentiable STA engine (Section 3 of the paper).

:class:`DifferentiableTimer` computes smoothed TNS/WNS *and their exact
gradients with respect to every cell location*, treating the timing graph
as a deep network (Figure 2):

forward  (Figure 3, left-to-right):
    pin locations -> Steiner trees -> Elmore delay/impulse/load ->
    levelised AT/slew propagation (LSE-merged) -> endpoint slacks ->
    smoothed TNS/WNS;

backward (Figure 3, blue edges, right-to-left):
    d(TNS,WNS)/d(slack) -> level-by-level adjoints of cell and net arcs ->
    Elmore adjoints (4 reverse DP passes) -> node coordinates -> pins
    (Steiner gradients routed to owner pins, Figure 4) -> cell locations.

The engine is hand-backpropagated; no autograd framework is involved.
Every stage is validated against central finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..netlist.design import Design
from ..route.rsmt import build_forest
from ..route.tree import Forest
from ..sta.elmore import ElmoreResult, check_wire_delay_model, design_elmore
from ..runtime import faults
from ..sta.graph import TimingGraph
from .propagate import endpoint_slacks, propagate, start_state
from .smoothing import lse_min, soft_clamp_neg, soft_clamp_neg_grad
from .sweep import cand_exponents, timer_adjoint

__all__ = ["DifferentiableTimer", "TimerTape"]

_SENTINEL = -1e30


@dataclass
class TimerTape:
    """Everything the backward pass needs from one forward evaluation."""

    forest: Forest
    elmore: ElmoreResult
    at: np.ndarray  # (n_pins, 2)
    slew: np.ndarray  # (n_pins, 2)
    # Per-contribution tape, (2, n_contribs) in global contribution order,
    # three views of the sweep's one block: row 0 is the delay table (AT
    # candidate AT(u) + Delay_u(v) and the delay partials), row 1 the slew
    # table (Slew_u(v) and its partials).
    cand: np.ndarray
    d_dslew: np.ndarray
    d_dload: np.ndarray
    # Endpoint data:
    ep_slack_t: np.ndarray  # (n_endpoints, 2)
    ep_slack: np.ndarray  # (n_endpoints,) transition-softmin slack
    setup_dsetup_dslew: np.ndarray  # (n_setup, 2)
    tns: float
    wns: float
    #: Fraction of endpoints whose rise/fall slack gap exceeds 20*gamma,
    #: i.e. where the transition softmin has saturated to a hard min and
    #: the smoothing no longer blends the two transitions.
    lse_saturation: float = 0.0

    @property
    def wns_exact_of_smoothed(self) -> float:
        """Hard min over the (smoothed-propagation) endpoint slacks."""
        return float(self.ep_slack_t.min()) if self.ep_slack_t.size else 0.0


class DifferentiableTimer:
    """Differentiable timing engine over a fixed design/timing graph."""

    def __init__(
        self,
        design: Design,
        graph: Optional[TimingGraph] = None,
        gamma: float = 20.0,
        wire_delay_model: str = "elmore",
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        self.gamma = float(gamma)
        self.wire_delay_model = check_wire_delay_model(wire_delay_model)
        #: Placement-independent sweep indices, shared with the graph's
        #: other timers (built here if this is their first use).
        self.plan = self.graph.plan
        self._fixed_cells = np.flatnonzero(design.cell_fixed)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(
        self,
        cell_x: Optional[np.ndarray] = None,
        cell_y: Optional[np.ndarray] = None,
        forest: Optional[Forest] = None,
    ) -> TimerTape:
        """Evaluate smoothed TNS/WNS at the given cell locations."""
        design = self.design
        graph = self.graph
        gamma = self.gamma
        x = design.cell_x if cell_x is None else cell_x
        y = design.cell_y if cell_y is None else cell_y
        if forest is None:
            forest = build_forest(design, x, y)

        # Fault-injection hook (inert unless a guarded placer run armed an
        # injector with a due lut_corrupt fault; see repro.runtime.faults).
        inj = faults.current_injector()
        if inj is not None:
            inj.corrupt_lutbank(graph.lutbank)

        elm, pins = design_elmore(
            design, forest, *design.pin_positions(x, y), graph.extra_pin_cap,
            self.wire_delay_model,
        )
        at, slew = start_state(self.plan, _SENTINEL, 0.0)
        sweep = propagate(
            self.plan, graph.lutbank, *pins, at, slew, "lse", gamma,
            partials=True,
        )

        # Endpoint slacks, smoothed TNS/WNS.
        ep_slack_t, dsetup_dslew = endpoint_slacks(graph, at, slew)
        # Softmin across the two transitions per endpoint.
        ep_slack = lse_min(ep_slack_t, gamma, axis=1)
        # No setup checks or output ports: timing is trivially met
        # (lse_min over an empty array would raise).
        tns = wns = saturation = 0.0
        if graph.n_endpoints:
            tns = float(soft_clamp_neg(ep_slack, gamma).sum())
            wns = float(lse_min(ep_slack, gamma))
            saturation = float(
                np.mean(
                    np.abs(ep_slack_t[:, 0] - ep_slack_t[:, 1]) > 20.0 * gamma
                )
            )
        return TimerTape(
            forest=forest,
            elmore=elm,
            at=at,
            slew=slew,
            cand=sweep.cand,
            d_dslew=sweep.d_dslew,
            d_dload=sweep.d_dload,
            ep_slack_t=ep_slack_t,
            ep_slack=ep_slack,
            setup_dsetup_dslew=dsetup_dslew,
            tns=tns,
            wns=wns,
            lse_saturation=saturation,
        )

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(
        self,
        tape: TimerTape,
        d_tns: float = 1.0,
        d_wns: float = 0.0,
        *,
        seeds: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> Union[Tuple[np.ndarray, np.ndarray], List[Tuple[np.ndarray, np.ndarray]]]:
        """Gradient of ``d_tns * TNS + d_wns * WNS`` w.r.t. cell centers.

        For the placement objective of Equation (6), which *minimises*
        ``t1 * (-TNS) + t2 * (-WNS)``, call with ``d_tns=-t1, d_wns=-t2``.

        With ``seeds`` - several ``(d_tns, d_wns)`` pairs - the gradients
        of all of them travel together, as the rows of one flat array,
        from the endpoint slacks through the level sweep, the Elmore
        adjoint and the Steiner-owner and pin -> cell scatters, and come
        back as a list of ``(g_x, g_y)`` pairs.  Everything that does not
        depend on the seed (merge weights, slew ratios) is computed once,
        and each seed's result is bit for bit what its own call returns.
        """
        single = seeds is None
        if single:
            seeds = [(d_tns, d_wns)]
        gamma = self.gamma

        # Fault-injection hook: a due timer_exc fault emulates a kernel
        # crash mid-backward (inert outside armed guarded placer runs).
        inj = faults.current_injector()
        if inj is not None:
            inj.maybe_raise("difftimer.backward")

        # d objective / d endpoint slack, up to the seed, and the
        # transition softmin weights.  With no endpoints the objective is
        # constant and the gradient identically zero; the empty arrays
        # propagate that without special cases.
        g_tns = soft_clamp_neg_grad(tape.ep_slack, gamma)
        w_ep = np.exp(np.maximum((tape.wns - tape.ep_slack) / gamma, -700.0))
        w_t = np.exp(
            np.maximum(
                (tape.ep_slack[:, None] - tape.ep_slack_t) / gamma, -700.0
            )
        )
        # Softmax weights of every merge candidate.
        w_cand = cand_exponents(self.plan, tape.at, tape.slew, tape.cand, gamma)
        np.exp(w_cand, out=w_cand)
        dd_dm = None
        if self.wire_delay_model == "d2m":
            # d2m = ln2 * m1^2 / sqrt(m2): the net-delay gradient chains
            # into both moments.
            forest = tape.forest
            m1 = tape.elmore.delay[forest.pin_nodes]
            beta = tape.elmore.beta[forest.pin_nodes]
            m2 = np.maximum(beta, 1e-30)
            valid = beta > 0
            dd_dm = (
                np.where(valid, 2.0 * np.log(2.0) * m1 / np.sqrt(m2), 0.0),
                np.where(valid, -0.5 * np.log(2.0) * m1 * m1 / m2**1.5, 0.0),
            )
        g_cells = timer_adjoint(
            self.plan, self.design, self._fixed_cells, tape,
            np.array(seeds, dtype=np.float64).reshape(-1, 2),
            g_tns, w_ep, w_t, w_cand, dd_dm,
        )
        out = list(zip(*g_cells))
        return out[0] if single else out

    # ------------------------------------------------------------------
    def tns_wns_with_grad(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        forest: Optional[Forest] = None,
        d_tns: float = 1.0,
        d_wns: float = 0.0,
    ):
        """One-call forward + backward; returns (tns, wns, g_x, g_y, tape)."""
        tape = self.forward(cell_x, cell_y, forest)
        g_cx, g_cy = self.backward(tape, d_tns=d_tns, d_wns=d_wns)
        return tape.tns, tape.wns, g_cx, g_cy, tape
