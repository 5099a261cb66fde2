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
from ..sta.elmore import (
    ElmoreResult,
    check_wire_delay_model,
    design_elmore,
    pin_elmore,
)
from ..runtime import faults
from ..sta.graph import TimingGraph
from .elmore_grad import elmore_adjoint
from .propagate import endpoint_rat, propagate, start_state
from .scatter import in_rows, scatter_accumulate, scatter_add
from .smoothing import lse_min, soft_clamp_neg, soft_clamp_neg_grad
from .sweep import sweep_backward

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

        elm = design_elmore(
            design, forest, *design.pin_positions(x, y), graph.extra_pin_cap
        )
        net_delay, impulse2, driver_load = pin_elmore(
            forest, elm, design.n_pins, self.wire_delay_model
        )

        at, slew = start_state(self.plan, _SENTINEL, 0.0)
        sweep = propagate(
            self.plan, graph.lutbank, net_delay, impulse2, driver_load,
            at, slew, "lse", gamma, partials=True,
        )

        # ------------------------------------------------------------------
        # Endpoint slacks, smoothed TNS/WNS.
        # ------------------------------------------------------------------
        rat, dsetup_dslew = endpoint_rat(graph, slew, grad=True)
        ep_slack_t = rat - at.reshape(-1).take(self.plan.endpoints.slots)
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
        n_seeds = len(seeds)
        design = self.design
        graph = self.graph
        plan = self.plan
        gamma = self.gamma
        n_pins = design.n_pins
        n_slots = 2 * n_pins
        at_flat, slew_flat = tape.at.reshape(-1), tape.slew.reshape(-1)

        def in_every_seed(index: np.ndarray, stride: int) -> np.ndarray:
            """Flat positions of ``index`` in each seed's ``stride`` slots."""
            return in_rows(index, n_seeds, stride)

        # Fault-injection hook: a due timer_exc fault emulates a kernel
        # crash mid-backward (inert outside armed guarded placer runs).
        inj = faults.current_injector()
        if inj is not None:
            inj.maybe_raise("difftimer.backward")

        # d objective / d endpoint slack, up to the seed.  With no
        # endpoints the objective is constant and the gradient is
        # identically zero; the empty arrays below propagate that without
        # special cases, but we still guard the softmin weights against
        # empty reductions.
        g_tns = soft_clamp_neg_grad(tape.ep_slack, gamma)
        w_ep = np.exp(np.maximum((tape.wns - tape.ep_slack) / gamma, -700.0))
        # Transition softmin weights.
        w_t = np.exp(
            np.maximum(
                (tape.ep_slack[:, None] - tape.ep_slack_t) / gamma, -700.0
            )
        )
        # Softmax weights of every merge candidate via the identity
        # w_i = exp((x_i - LSE) / gamma); x_i <= LSE, so the exponent is
        # clamped to [-700, 0] (a corrupted tape must not overflow).
        w_cand = np.empty_like(tape.cand)
        at_flat.take(plan.c_dst, out=w_cand[0])
        slew_flat.take(plan.c_dst, out=w_cand[1])
        np.subtract(tape.cand, w_cand, out=w_cand)
        w_cand /= gamma
        np.minimum(np.maximum(w_cand, -700.0, out=w_cand), 0.0, out=w_cand)
        np.exp(w_cand, out=w_cand)

        # Seed the endpoint slots of every seed's flat gradient:
        # slack = rat - at;  for setup endpoints rat = T - setup(slew_D).
        g_sep = np.stack([
            s_tns * g_tns + s_wns * w_ep
            if s_wns != 0.0 and tape.ep_slack.size
            else s_tns * g_tns
            for s_tns, s_wns in seeds
        ])
        g_slack_t = g_sep[:, :, None] * w_t  # (n_seeds, n_ep, 2)
        g_at = np.zeros(n_seeds * n_slots)
        g_slew = np.zeros(n_seeds * n_slots)
        slots = plan.endpoints.slots
        n_setup = len(graph.setup_d)
        scatter_accumulate(
            g_at, in_every_seed(slots.reshape(-1), n_slots), -g_slack_t.reshape(-1)
        )
        scatter_accumulate(
            g_slew,
            in_every_seed(slots[:n_setup].reshape(-1), n_slots),
            (-g_slack_t[:, :n_setup] * tape.setup_dsetup_dslew).reshape(-1),
        )

        # The level sweep, every seed at once (net arcs: Slew(v) =
        # sqrt(Slew(u)^2 + Impulse(v)^2), so Slew(u) gets Slew(u) / Slew(v)).
        sweep_backward(plan, w_cand, tape.d_dslew, slew_flat, g_at, g_slew, n_seeds)

        # Sinks of a level's arcs are final when it is swept, so what the
        # Elmore model receives is folded once, after the sweep: the
        # net-arc sink gradients into the wire delay and squared impulse
        # (Eq. 10), the candidate gradients into Load(v) via both LUT
        # y-derivatives (Eq. 12e).  Each whole-graph array of every seed
        # is dropped at its last use (g_at before g_slew is read) and the
        # slew fold divides in place.  The call's traced peak is here,
        # with the tape, w_cand, g_slew and both candidate-gradient rows
        # live (midiblue50); the Elmore adjoint below stays under it.
        def net_sink_grad(g_sink: np.ndarray) -> np.ndarray:
            per_pin = g_sink.reshape(n_seeds, n_pins, 2)
            return np.where(plan.is_net_sink, per_pin[..., 0] + per_pin[..., 1], 0.0)

        def candidate_grad(g_sink: np.ndarray, row: int) -> np.ndarray:
            g = g_sink.reshape(n_seeds, n_slots).take(plan.c_dst, axis=1)
            g *= w_cand[row]
            g *= tape.d_dload[row]
            return g

        g_net_delay = net_sink_grad(g_at)
        g_cand = candidate_grad(g_at, 0)
        del g_at
        g_cand += candidate_grad(g_slew, 1)
        del w_cand
        g_slew_pins = g_slew.reshape(n_seeds, n_pins, 2)
        g_slew_pins /= 2.0 * np.maximum(tape.slew, 1e-12)
        g_impulse2 = net_sink_grad(g_slew)
        del g_slew, g_slew_pins
        g_load = np.empty((n_seeds, n_pins))
        for s in range(n_seeds):
            g_load[s] = scatter_add(graph.c_dst, g_cand[s], n_pins)
        del g_cand

        # Map per-pin gradients onto forest nodes and hand them to the
        # Elmore adjoint, which runs in their buffers and frees each at its
        # last use.
        forest = tape.forest
        n_nodes = forest.n_nodes
        pin_nodes = in_every_seed(forest.pin_nodes, n_nodes)
        node_pins = in_every_seed(forest.pins_of_nodes, n_pins)

        def on_nodes(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
            out = np.zeros(n_seeds * n_nodes)
            out[nodes] = values
            return out.reshape(n_seeds, n_nodes)

        g_delay_pins = g_net_delay.reshape(-1).take(node_pins)
        g_imp2_pins = g_impulse2.reshape(-1).take(node_pins)
        # The load gradient is nonzero only at driver (root) pins.
        g_load_roots = g_load.take(in_every_seed(forest.driver_pins, n_pins))
        del g_net_delay, g_impulse2, g_load, node_pins
        beta_grads = []
        if self.wire_delay_model == "d2m":
            # d2m = ln2 * m1^2 / sqrt(m2): chain the net-delay gradient
            # into both moments.
            m1 = tape.elmore.delay[forest.pin_nodes]
            beta = tape.elmore.beta[forest.pin_nodes]
            m2 = np.maximum(beta, 1e-30)
            valid = beta > 0
            dd_dm1 = np.where(valid, 2.0 * np.log(2.0) * m1 / np.sqrt(m2), 0.0)
            dd_dm2 = np.where(
                valid, -0.5 * np.log(2.0) * m1 * m1 / m2**1.5, 0.0
            )
            per_seed = g_delay_pins.reshape(n_seeds, -1)
            beta_grads.append(on_nodes(pin_nodes, (per_seed * dd_dm2).reshape(-1)))
            g_delay_pins = (per_seed * dd_dm1).reshape(-1)
            del per_seed
        grads = [
            on_nodes(pin_nodes, g_delay_pins),
            on_nodes(pin_nodes, g_imp2_pins),
            on_nodes(in_every_seed(forest.driver_nodes, n_nodes), g_load_roots),
            *beta_grads,
        ]
        del g_delay_pins, g_imp2_pins, g_load_roots, beta_grads, pin_nodes
        g_nx, g_ny = elmore_adjoint(forest, tape.elmore, design.library.wire, grads)
        g_px, g_py = forest.scatter_coord_grad(g_nx, g_ny)
        del g_nx, g_ny

        # Pins move rigidly with their cells: x and y of every seed in one
        # scatter onto (2 * n_seeds, n_cells).
        n_cells = design.n_cells
        g_cells = scatter_add(
            in_rows(design.pin2cell, 2 * n_seeds, n_cells),
            np.concatenate([g_px, g_py], axis=None),
            2 * n_seeds * n_cells,
        )
        g_cells[in_rows(self._fixed_cells, 2 * n_seeds, n_cells)] = 0.0
        g_cx, g_cy = g_cells.reshape(2, n_seeds, n_cells)
        out = list(zip(g_cx, g_cy))
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
