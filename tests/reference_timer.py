"""The NumPy glue of the differentiable timer's calls, kept as the test
oracle of the compiled timer (``repro.core.sweep``).

Moved here verbatim when ``sweep.c`` took over the whole timer call:
``start_state``, ``pin_elmore`` with ``d2m_delay`` (the per-pin inputs
of the timers), ``design_elmore``'s node gathers and ``endpoint_rat``
(which read the ideal clock's load side from the plan; it is located
here), the
forward's body around them, ``Forest.scatter_coord_grad`` (a function
of the forest here) and the backward's body with its ``in_rows`` tables,
its candidate -> ``Load(v)`` fold and its pin -> node maps.  The level
sweeps and the Elmore passes they call are the NumPy kernels of
``tests/reference_sweep.py``, and the timer's :class:`TimerTape` is the
one it returns.  ``tests/test_timer_oracle.py`` holds the compiled timer
to them bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

import tests.reference_sweep as sweep_ref
from repro.core.cell_prop import SLEW_CLIP_MAX
from repro.core.difftimer import DifferentiableTimer, TimerTape
from repro.core.propagate import capture_clock
from repro.core.scatter import scatter_add
from repro.core.smoothing import lse_min, soft_clamp_neg, soft_clamp_neg_grad
from repro.route.tree import Forest
from repro.sta.elmore import ElmoreResult, node_caps
from repro.sta.graph import TimingGraph

_SENTINEL = -1e30

in_rows = sweep_ref.in_rows
scatter_accumulate = sweep_ref.scatter_accumulate
clip_slew, slew_clipped = sweep_ref.clip_slew, sweep_ref.slew_clipped


def start_state(plan, fill_at, fill_slew, start=None):
    """Fresh ``(n_pins, 2)`` arrival-time and slew arrays for a sweep."""
    at = np.full((plan.n_pins, 2), fill_at)
    slew = np.full((plan.n_pins, 2), fill_slew)
    start_at, start_slew = (plan.start_at, plan.start_slew) if start is None else start
    at[plan.start_pins] = start_at
    slew[plan.start_pins] = start_slew
    return at, slew


def d2m_delay(delay: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The D2M ("delay with two moments") metric ``ln2 * m1^2 / sqrt(m2)``."""
    safe_beta = np.maximum(beta, 1e-30)
    out = np.log(2.0) * delay * delay / np.sqrt(safe_beta)
    return np.where(beta > 0, out, 0.0)


def root_load(
    elmore: ElmoreResult, forest: Forest, n_pins: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scatter per-net root load onto the driver pins."""
    if out is None:
        out = np.zeros(n_pins)
    out[forest.driver_pins] = elmore.load[forest.driver_nodes]
    return out


def pin_elmore(
    forest: Forest,
    elmore: ElmoreResult,
    n_pins: int,
    wire_delay_model: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forest-node Elmore outputs as the per-pin inputs of the timers.

    Returns ``(net_delay, impulse2, driver_load)``, each ``(n_pins,)``:
    the wire delay (Elmore or D2M, per ``wire_delay_model``) and squared
    impulse ``max(2 * beta - delay^2, 0)`` at the forest's pin nodes and
    the net load at its driver pins.  Pins off the forest read zero.
    """
    net_delay, impulse2, driver_load = (np.zeros(n_pins) for _ in range(3))
    nodes, pins = forest.pin_nodes, forest.pins_of_nodes
    delay, beta = elmore.delay[nodes], elmore.beta[nodes]
    net_delay[pins] = d2m_delay(delay, beta) if wire_delay_model == "d2m" else delay
    impulse2[pins] = np.maximum(2.0 * beta - delay**2, 0.0)
    root_load(elmore, forest, n_pins, out=driver_load)
    return net_delay, impulse2, driver_load


def design_elmore(design, forest, px, py, extra_pin_cap=None) -> ElmoreResult:
    """Elmore passes of ``forest`` at the pin positions of ``design``."""
    nx, ny = forest.node_coords(px, py)
    caps = node_caps(forest, design.pin_cap, extra_pin_cap)
    return sweep_ref.elmore_forward(forest, nx, ny, caps, design.library.wire)


def endpoint_rat(
    graph: TimingGraph,
    slew: np.ndarray,
    idx: Optional[np.ndarray] = None,
    clock=None,
    grad: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Required arrival times at the timing endpoints.

    ``idx`` indexes ``graph.endpoint_pins`` (default: all - setup checks
    first, then output ports); ``clock`` as in :func:`capture_clock`.
    Returns ``(rat, dsetup_dslew)``: the ``(len(idx), 2)`` required times
    ``T + at_ck - setup(slew_D, slew_ck)`` / ``T - output_delay`` and,
    with ``grad``, the slew derivative of the setup time per selected
    setup check (zero where the slew clip is active, which makes the
    lookup constant; ``None`` without ``grad``).
    """
    tables = graph.plan.endpoints
    bank = graph.lutbank
    n_setup = len(graph.setup_d)
    period = graph.design.constraints.clock_period
    if idx is None:
        n = graph.n_endpoints
        setup = ports = slice(None)  # which checks / ports
        setup_rows, port_rows = slice(0, n_setup), slice(n_setup, n)
    else:
        n = len(idx)
        setup_rows = np.flatnonzero(idx < n_setup)
        port_rows = np.flatnonzero(idx >= n_setup)
        setup, ports = idx[setup_rows], idx[port_rows] - n_setup
    rat = np.empty((n, 2))
    rat[port_rows] = (period - graph.po_output_delay[ports])[:, None]

    query = bank.rebind(tables.setup_query, setup)
    if clock is None:
        setup_load = bank.locate_load(
            tables.setup_query, np.full(n_setup, graph.clock_slew)
        )
        ck_at, load = 0.0, setup_load.at(setup)
    else:
        ck_at, ck_slew = capture_clock(graph, graph.setup_ck[setup], clock)
        load = bank.locate_load(query, ck_slew)
    slew_raw = slew.reshape(-1).take(tables.slots[:n_setup][setup]).T
    slew_in = clip_slew(slew_raw, SLEW_CLIP_MAX)
    dsetup_dslew = None
    if grad:
        partials = np.empty(slew_raw.shape), np.empty(slew_raw.shape)
        setup_time = bank.interpolate(query, slew_in, load, partials)
        clipped = slew_clipped(slew_raw, SLEW_CLIP_MAX)
        dsetup_dslew = np.where(clipped, 0.0, partials[0]).T
    else:
        setup_time = bank.interpolate(query, slew_in, load)
    rat[setup_rows] = (period + ck_at - setup_time).T
    return rat, dsetup_dslew


def scatter_coord_grad(
    forest: Forest, grad_node_x: np.ndarray, grad_node_y: np.ndarray
) -> tuple:
    """Accumulate node-coordinate gradients onto global pins.

    Steiner-node gradients go to the owning pins (Figure 4); pin-node
    gradients go to the pins themselves.  ``(n_nodes,)`` gradients
    give ``(n_pins,)``; the ``(k, n_nodes)`` gradients of ``k``
    objectives give ``(k, n_pins)``, all rows in one scatter.
    """
    shape = grad_node_x.shape[:-1] + (forest.n_pins_total,)
    n_rows = int(np.prod(shape[:-1]))

    def scatter(owner: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return scatter_add(
            in_rows(owner, n_rows, forest.n_pins_total), grad.reshape(-1),
            n_rows * forest.n_pins_total,
        ).reshape(shape)

    return scatter(forest.owner_x_pin, grad_node_x), scatter(
        forest.owner_y_pin, grad_node_y
    )


def forward(
    timer: DifferentiableTimer,
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    forest: Forest,
) -> TimerTape:
    """``DifferentiableTimer.forward`` as it was in NumPy."""
    self = timer
    design = self.design
    graph = self.graph
    gamma = self.gamma
    x, y = cell_x, cell_y

    elm = design_elmore(
        design, forest, *design.pin_positions(x, y), graph.extra_pin_cap
    )
    net_delay, impulse2, driver_load = pin_elmore(
        forest, elm, design.n_pins, self.wire_delay_model
    )

    at, slew = start_state(self.plan, _SENTINEL, 0.0)
    sweep = sweep_ref.propagate(
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


def backward(
    timer: DifferentiableTimer,
    tape: TimerTape,
    d_tns: float = 1.0,
    d_wns: float = 0.0,
    *,
    seeds: Optional[Sequence[Tuple[float, float]]] = None,
) -> Union[Tuple[np.ndarray, np.ndarray], List[Tuple[np.ndarray, np.ndarray]]]:
    """``DifferentiableTimer.backward`` as it was in NumPy."""
    self = timer
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

    # The level sweep, every seed at once.
    sweep_ref.backward_sweep(
        plan, tape.slew, w_cand, tape.d_dslew, g_at, g_slew, n_seeds
    )

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
    # Elmore adjoint.
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
    g_nx, g_ny = sweep_ref.elmore_adjoint(
        forest, tape.elmore, design.library.wire, grads
    )
    g_px, g_py = scatter_coord_grad(forest, g_nx, g_ny)
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
