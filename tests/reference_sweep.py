"""The NumPy level kernels and tree loops of the timers, kept as test
references for the compiled sweep (``repro.core.sweep``).

Moved here verbatim when ``sweep.c`` replaced them: the four per-level
kernels of the forward and backward sweeps (``cell_forward_level``,
``net_forward_level``, ``cell_backward_level``, ``net_backward_level``)
with ``zero_clipped_partials``, the level loop of ``propagate``, golden
STA's ``_required_times`` (a function of the graph here), the Elmore
forward passes and the Elmore adjoint, whose per-seed-count level tables
(``Forest.seed_steps``, deleted with it) are built per call here, with
the ``in_rows``, ``_sign8`` and slew-clip helpers they use (the sink
pin of a contribution, once the plan's ``c_pin``, is ``c_dst // 2``).  ``backward_sweep`` is
the level loop of ``DifferentiableTimer.backward`` with its slew ratios.
``tests/test_sweep.py`` holds the compiled sweep to them bit for bit;
``tests/reference_timer.py`` composes them into whole timer calls.

The in-place scatter helpers they accumulate through
(``scatter_accumulate`` and its 2-D and row forms, ``flat_view``) and the
row and grid forms of ``scatter_add`` moved here from
``repro.core.scatter`` when their last library caller was compiled.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core import cell_prop
from repro.core.cell_prop import SweepTape
from repro.core.scatter import same_descr
from repro.core.smoothing import segment_lse_max, segment_max
from repro.netlist.library import WireModel
from repro.route.tree import Forest
from repro.sta.elmore import ElmoreResult
from repro.sta.graph import CellLevel, LevelPlan, NetLevel
from repro.sta.nldm import LoadSide, LutBank

_POS_INF = 1e30


def scatter_add_2d(
    ix: np.ndarray, iy: np.ndarray, values: np.ndarray, shape: tuple
) -> np.ndarray:
    """Fresh ``shape`` grid with ``values`` summed into ``(ix, iy)`` cells.

    Equivalent to ``out = zeros(shape); np.add.at(out, (ix, iy), values)``.
    """
    nx, ny = shape
    return (
        np.bincount(ix * ny + iy, weights=values, minlength=nx * ny)
        .astype(np.float64, copy=False)
        .reshape(nx, ny)
    )


def scatter_add_rows(
    rows: np.ndarray, values: np.ndarray, n_rows: int
) -> np.ndarray:
    """Fresh ``(n_rows, c)`` array accumulating the ``(k, c)`` ``values`` rows.

    Equivalent to ``out = zeros((n_rows, c)); np.add.at(out, rows, values)``
    (the row-scatter used to push per-pin gradients onto driver pins).
    """
    c = values.shape[1]
    flat = (rows[:, None] * c + np.arange(c)).ravel()
    return (
        np.bincount(flat, weights=values.ravel(), minlength=n_rows * c)
        .astype(np.float64, copy=False)
        .reshape(n_rows, c)
    )


def flat_view(out: np.ndarray) -> np.ndarray:
    """C-contiguous flat view of ``out`` (in-place kernels mutate it)."""
    if not out.flags.c_contiguous:
        raise ValueError(
            "scatter_accumulate targets must be C-contiguous "
            "(reshape(-1) would silently copy)"
        )
    return out.reshape(-1)


def scatter_accumulate(
    out: np.ndarray, index: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """In-place ``out[index] += values`` with duplicate indices folded.

    ``out`` must be 1-D.  On a 1-D contiguous float64 target numpy takes
    its indexed inner loop (given operands of one dtype object, which
    :func:`same_descr` sees to), which outperforms any bincount rebuild
    of ``out`` at every update density the sweeps produce.
    """
    np.add.at(out, index, same_descr(out, values))
    return out


def scatter_accumulate_at(
    out: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """In-place ``np.add.at(out, (rows, cols), values)`` on a 2-D array.

    ``rows``/``cols``/``values`` broadcast against each other exactly as
    the fancy-index form does (e.g. ``rows[:, None]`` against a
    ``[[0, 1]]`` column stencil); the flattened 1-D form folds each slot
    in the same element order, several times faster.
    """
    flat, values = np.broadcast_arrays(rows * out.shape[1] + cols, values)
    scatter_accumulate(flat_view(out), flat.ravel(), values.ravel())
    return out


def scatter_accumulate_rows(
    out: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """In-place ``np.add.at(out, rows, values)`` row scatter on ``(n, c)``."""
    c = out.shape[1]
    flat = (rows[:, None] * c + np.arange(c)).ravel()
    scatter_accumulate(flat_view(out), flat, values.ravel())
    return out


def in_rows(index: np.ndarray, n_rows: int, stride: int) -> np.ndarray:
    """Flat positions of ``index`` in every row of a ``(n_rows, stride)`` array."""
    return (np.arange(n_rows)[:, None] * stride + index).reshape(-1)


def clip_slew(slew: np.ndarray, bound: float) -> np.ndarray:
    """``slew`` clamped to ``[0, bound]``, the range LUT queries are made in."""
    return np.minimum(np.maximum(slew, 0.0), bound)


def slew_clipped(slew: np.ndarray, bound: float) -> np.ndarray:
    """Where :func:`clip_slew` is active (the lookup sees a constant)."""
    return (slew < 0.0) | (slew > bound)


def _sign8(values: np.ndarray) -> np.ndarray:
    """``np.sign`` as int8 (0 at NaN, where a cast would warn)."""
    return (values > 0).astype(np.int8) - (values < 0)


def cell_forward_level(
    lv: CellLevel,
    lutbank: LutBank,
    load: LoadSide,
    merge: str,
    gamma: float,
    at: np.ndarray,
    slew: np.ndarray,
    tape: SweepTape,
) -> None:
    """Forward cell propagation for one level (in place).

    ``lv`` is a level of the graph's :class:`LevelPlan`; ``at``/``slew``
    are the flat ``(2 * n_pins,)`` views of the timer's arrays and
    ``load`` the level's slice of the sweep's load-side lookup.
    ``merge`` is ``"max"``, ``"min"`` or ``"lse"`` (smoothed by
    ``gamma``).  ``tape`` receives the merge candidates, and the arc
    delays and the LUT partials where it has rows for them
    (:func:`zero_clipped_partials` finishes the partials after the
    sweep).
    """
    sl = lv.sl
    partials = None
    if tape.d_dslew is not None:
        partials = tape.d_dslew[:, sl], tape.d_dload[:, sl]
    slew_in = clip_slew(slew[lv.src], cell_prop.SLEW_CLIP_MAX)
    cand = lutbank.interpolate(lv.query, slew_in, load, partials)
    if tape.delay is not None:
        tape.delay[sl] = cand[0]
    cand[0] += at[lv.src]
    tape.cand[:, sl] = cand

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


def zero_clipped_partials(
    src: np.ndarray, slew: np.ndarray, tape: SweepTape
) -> None:
    """Zero the taped slew partials of contributions whose slew was clipped.

    Where the clip is active the lookup sees a constant slew, so the
    recorded slew-derivatives must vanish (else backward disagrees with
    finite differences of the clipped forward).  A source's slew is final
    once its level is swept, so this runs once, after the sweep, over the
    ``src`` slots of all contributions.
    """
    clipped = slew_clipped(slew[src], cell_prop.SLEW_CLIP_MAX)
    if clipped.any():
        tape.d_dslew[:, clipped] = 0.0


def cell_backward_level(
    lv: CellLevel,
    weights: np.ndarray,
    tape_d_dslew: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    seed_slots: np.ndarray,
) -> None:
    """Backward cell propagation for one level (Equation (12), in place).

    ``weights`` are the ``(2, n_contribs)`` merge weights of the AT and
    slew candidates (the softmax identity ``w_i = exp((x_i - LSE) /
    gamma)``, which does not depend on the seed).  ``g_at``/``g_slew``
    are the flat gradients of all seeds, seed ``s`` in the ``2 * n_pins``
    slots from ``seed_slots[s]`` (an ``(n_seeds, 1)`` column); their
    entries at the level's sinks must be final.  Accumulates into the
    source-pin AT/slew gradients of every seed at once.
    """
    w = weights[:, lv.sl]
    d_ds = tape_d_dslew[:, lv.sl]
    n_seeds = len(seed_slots)
    dst = (seed_slots + lv.dst).reshape(-1)
    src = (seed_slots + lv.src).reshape(-1)
    # Gradient over (AT(u) + Delay_u(v)) and over Slew_u(v).
    g0 = g_at.take(dst).reshape(n_seeds, -1) * w[0]
    g1 = g_slew.take(dst).reshape(n_seeds, -1) * w[1]
    # AT(u) receives the merge weight directly (Eq. 12a).
    scatter_accumulate(g_at, src, g0.reshape(-1))
    # Slew(u) via both LUT x-derivatives (Eq. 12d).
    scatter_accumulate(g_slew, src, (g0 * d_ds[0] + g1 * d_ds[1]).reshape(-1))


def net_forward_level(
    lv: NetLevel,
    arc_delay: np.ndarray,
    arc_impulse2: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
) -> None:
    """Forward net propagation for the arcs of one level (in place).

    ``at``/``slew`` are the flat ``(2 * n_pins,)`` views of the timer's
    arrays; ``arc_delay`` and ``arc_impulse2`` hold the Elmore delay and
    squared impulse at the sink of every (arc, transition) of the sweep,
    gathered once per call.
    """
    at[lv.sink_flat] = at.take(lv.src_flat) + arc_delay[lv.sl2]
    slew[lv.sink_flat] = np.sqrt(slew.take(lv.src_flat) ** 2 + arc_impulse2[lv.sl2])


def net_backward_level(
    lv: NetLevel,
    slew_ratio: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    seed_slots: np.ndarray,
) -> None:
    """Backward net propagation for one level (Equation (10), in place).

    ``lv`` is the level's slice of the graph's :class:`LevelPlan` and
    ``slew_ratio`` the flat per-(arc, transition) ``Slew(u) / Slew(v)``.
    ``g_at``/``g_slew`` are the flat gradients of all seeds, laid out as
    for :func:`~repro.core.cell_prop.cell_backward_level`; the sink
    entries must already be final (higher levels processed first) and
    the driver entries are accumulated into.  Sink gradients never change
    again, so the caller folds them into the Elmore delay / squared
    impulse gradients once, after the sweep.
    """
    sink = (seed_slots + lv.sink_flat).reshape(-1)
    src = (seed_slots + lv.src_flat).reshape(-1)
    scatter_accumulate(g_at, src, g_at.take(sink))
    scaled = g_slew.take(sink).reshape(len(seed_slots), -1) * slew_ratio[lv.sl2]
    scatter_accumulate(g_slew, src, scaled.reshape(-1))


def propagate(
    plan: LevelPlan,
    lutbank: LutBank,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    driver_load: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
    merge: str,
    gamma: float = 0.0,
    partials: bool = False,
) -> SweepTape:
    """Sweep arrival times and slews forward over the levels (in place).

    ``at``/``slew`` are ``(n_pins, 2)`` and hold the boundary values at the
    start pins.  ``net_delay``/``impulse2``/``driver_load`` are the
    per-pin Elmore outputs of :func:`repro.sta.elmore.pin_elmore`.
    Fan-ins merge with ``merge`` - ``"max"``, ``"min"`` or ``"lse"``
    smoothed by ``gamma``.  Returns the per-contribution tape: the merge
    candidates, the arc delays under an exact merge (the required-time
    pass of golden STA reads them) and the LUT partials if ``partials``.

    Every load and wire delay is known before the sweep starts, so all
    cell arcs are placed on the load axis of their tables and the net
    arcs' Elmore values are gathered here, once; a level only locates the
    slews it has just computed.
    """
    n = plan.n_contribs
    # One block, rows filled level by level: the cell levels' slices tile
    # ``[0, n)``, so no row is read before its level writes it.
    exact = merge != "lse"
    block = np.empty((2 + (1 if exact else 0) + (4 if partials else 0), n))
    tape = SweepTape(
        block[:2],
        block[2] if exact else None,
        block[-4:-2] if partials else None,
        block[-2:] if partials else None,
    )
    load = lutbank.locate_load(plan.query, driver_load[plan.c_dst // 2])
    arc_delay = np.repeat(net_delay[plan.net_sink], 2)
    arc_impulse2 = np.repeat(impulse2[plan.net_sink], 2)
    at_flat, slew_flat = at.reshape(-1), slew.reshape(-1)
    for net, cell in plan.levels:
        if net is not None:
            net_forward_level(net, arc_delay, arc_impulse2, at_flat, slew_flat)
        if cell is not None:
            cell_forward_level(
                cell, lutbank, load.at(cell.sl), merge, gamma,
                at_flat, slew_flat, tape,
            )
    if partials:
        zero_clipped_partials(plan.c_src, slew_flat, tape)
    return tape


def backward_sweep(
    plan: LevelPlan,
    slew: np.ndarray,
    w_cand: np.ndarray,
    d_dslew: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    n_seeds: int,
) -> None:
    """The level loop of ``DifferentiableTimer.backward`` (``slew`` is the
    tape's ``(n_pins, 2)`` slews)."""
    slew_ratio = (
        slew.take(plan.net_src, axis=0)
        / np.maximum(slew, 1e-12).take(plan.net_sink, axis=0)
    ).reshape(-1)
    seed_slots = np.arange(n_seeds)[:, None] * (2 * plan.n_pins)
    for net, cell in reversed(plan.levels):
        if cell is not None:
            cell_backward_level(cell, w_cand, d_dslew, g_at, g_slew, seed_slots)
        if net is not None:
            net_backward_level(net, slew_ratio, g_at, g_slew, seed_slots)


def required_times(graph, slew, net_delay, arc_delay, clock=None) -> np.ndarray:
    """Backward RAT propagation for the late (setup) mode.

    Walks the plan's levels in reverse with the arc delays the forward
    sweep recorded: the ``min`` over a cell level's compact source
    segments is ``-max(-x)``, over a net level one ``reduceat`` of the
    nets' contiguous arc runs.
    """
    from tests.reference_timer import endpoint_rat

    plan = graph.plan
    rat = np.full((graph.design.n_pins, 2), _POS_INF)
    rat[graph.endpoint_pins] = endpoint_rat(graph, slew, clock=clock)[0]
    rat_flat = rat.reshape(-1)
    for (net, cell), (runs, sources) in zip(
        reversed(plan.levels), reversed(plan.reverse)
    ):
        if cell is not None:
            worst = -segment_max(
                arc_delay[cell.sl] - rat_flat[cell.dst],
                sources.seg, len(sources.touched),
            )
            rat_flat[sources.touched] = np.minimum(
                rat_flat[sources.touched], worst
            )
        if net is not None:
            worst = np.minimum.reduceat(
                rat.take(net.sinks, axis=0) - net_delay[net.sinks][:, None],
                runs.starts, axis=0,
            )
            rat[runs.drivers] = np.minimum(
                rat.take(runs.drivers, axis=0), worst
            )
    return rat


def elmore_forward(
    forest: Forest,
    node_x: np.ndarray,
    node_y: np.ndarray,
    intrinsic_cap: np.ndarray,
    wire: WireModel,
) -> ElmoreResult:
    """Run the 4-pass Elmore DP of Equation (7) over the whole forest.

    Parameters
    ----------
    forest:
        Flattened routing trees.
    node_x, node_y:
        Current node coordinates (see :meth:`Forest.node_coords`).
    intrinsic_cap:
        Per-node pin capacitance (see :func:`node_caps`).
    wire:
        Per-unit-length RC parameters.
    """
    dx = node_x - node_x[forest.up]
    dy = node_y - node_y[forest.up]
    edge_len = np.abs(dx) + np.abs(dy)
    edge_res = wire.res_per_um * edge_len
    # Wire capacitance of each edge is lumped half at each endpoint (a
    # root's own zero-length "edge" adds an exact 0.0 to itself).
    # bincount is a much faster deterministic scatter-add than np.add.at
    # (it sums each bin in input order before a single vector add).
    half_wire = 0.5 * wire.cap_per_um * edge_len
    cap = intrinsic_cap + half_wire
    cap += np.bincount(forest.up, weights=half_wire, minlength=forest.n_nodes)

    def sum_into_parents(values: np.ndarray) -> None:
        """Bottom-up ``values[u] += sum_child values[v]``, a level at a
        time, each level adding one compact sum per distinct parent."""
        for depth in range(forest.max_depth, 0, -1):
            groups = forest.level_groups[depth]
            values[groups] += np.bincount(
                forest.level_group_of[depth],
                weights=values[forest.levels[depth]],
                minlength=len(groups),
            )

    def add_from_parents(values: np.ndarray, step: np.ndarray) -> None:
        """Top-down ``values[v] = values[fa(v)] + step[v]``."""
        for depth in range(1, forest.max_depth + 1):
            level = forest.levels[depth]
            values[level] = values[forest.level_parent[depth]] + step[level]

    # Pass 1 (bottom-up): Load(u) = Cap(u) + sum_child Load(v).
    load = cap.copy()
    sum_into_parents(load)
    # Pass 2 (top-down): Delay(u) = Delay(fa(u)) + Res(fa->u) * Load(u).
    delay = np.zeros(forest.n_nodes)
    add_from_parents(delay, edge_res * load)
    # Pass 3 (bottom-up): LDelay(u) = Cap(u)*Delay(u) + sum_child LDelay(v).
    ldelay = cap * delay
    sum_into_parents(ldelay)
    # Pass 4 (top-down): Beta(u) = Beta(fa(u)) + Res(fa->u) * LDelay(u).
    beta = np.zeros(forest.n_nodes)
    add_from_parents(beta, edge_res * ldelay)
    return ElmoreResult(
        edge_res=edge_res,
        cap=cap,
        load=load,
        delay=delay,
        ldelay=ldelay,
        beta=beta,
        dir_x=_sign8(dx),
        dir_y=_sign8(dy),
    )


def elmore_adjoint(
    forest: Forest, elm: ElmoreResult, wire: WireModel, grads: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`elmore_backward` in the caller's own gradient buffers.

    ``grads`` is the list ``[g_delay_ext, g_imp2_ext, g_load_ext]``
    (distinct C-contiguous float64 arrays), with ``g_beta_ext`` appended
    if there is one.  The caller hands the arrays over: the list is
    emptied, the sweeps run in the first three and each is freed at its
    last use.  Results are bit for bit those of :func:`elmore_backward`.
    """
    g_delay, g_imp2, g_load, *g_beta_ext = grads
    grads.clear()
    # All seeds travel as one flat array: each level is one launch over
    # the forest's per-seed-count tables, whatever the number of seeds.
    n_rows = math.prod(g_delay.shape[:-1])
    steps = [
        tuple(in_rows(index, n_rows, forest.n_nodes).astype(np.int32) for index in step)
        for step in zip(forest.levels[1:], forest.level_parent[1:])
    ]

    def rows(values: np.ndarray):
        """The per-seed rows of a gradient array, as writable views."""
        return values.reshape(-1, forest.n_nodes) if forest.n_nodes else ()

    def sum_into_parents(values: np.ndarray) -> None:
        """Adjoint of a top-down pass: ``g[fa(v)] += g[v]``, deepest first."""
        flat = flat_view(values)
        for level, parent in reversed(steps):
            scatter_accumulate(flat, parent, flat.take(level))

    def add_from_parents(values: np.ndarray) -> None:
        """Adjoint of a bottom-up pass: ``g[v] += g[fa(v)]``, roots first."""
        flat = flat_view(values)
        for level, parent in steps:
            flat[level] = flat.take(level) + flat.take(parent)

    # Only the two sums along the tree edges run level by level; a node's
    # local terms read its own final values, so each is one whole-forest
    # expression after the sweep that completes them.  At a root the edge
    # terms vanish (zero edge resistance, zero delay); its ``g_res`` entry
    # is unused.  With several seeds these are the timer's largest arrays,
    # so each adjoint reuses the buffer of one that is dead by then
    # (g_beta and g_ldelay that of g_imp2, g_len and g_x that of g_res)
    # and each buffer is dropped at its last use.
    g_delay -= 2.0 * elm.delay * g_imp2
    g_beta = g_imp2
    g_beta *= 2.0
    if g_beta_ext:
        g_beta += g_beta_ext.pop()
    del g_imp2

    # Reverse of pass 4 (Beta top-down).
    sum_into_parents(g_beta)
    g_res = elm.ldelay * g_beta  # gradient of the edge-to-parent res
    g_ldelay = np.multiply(elm.edge_res, g_beta, out=g_beta)
    del g_beta
    # Reverse of pass 3 (LDelay bottom-up).
    add_from_parents(g_ldelay)
    g_cap = elm.delay * g_ldelay
    g_delay += elm.cap * g_ldelay
    del g_ldelay
    # Reverse of pass 2 (Delay top-down).
    sum_into_parents(g_delay)
    g_res += elm.load * g_delay
    g_load += elm.edge_res * g_delay
    del g_delay
    # Reverse of pass 1 (Load bottom-up).
    add_from_parents(g_load)
    g_cap += g_load
    del g_load

    # Chain into edge lengths:  res = r * len;  each edge's wire cap is
    # half-lumped onto both endpoints.
    g_len = np.multiply(wire.res_per_um, g_res, out=g_res)
    g_wire = np.take(g_cap, forest.up, axis=-1)
    g_wire += g_cap
    del g_cap
    g_wire *= 0.5 * wire.cap_per_um
    g_len += g_wire
    del g_res, g_wire

    # Rectilinear length -> coordinates (sign subgradient at zero): each
    # edge pulls its node one way and its parent the other.
    g_y = elm.dir_y * g_len
    g_x = np.multiply(elm.dir_x, g_len, out=g_len)
    for g in (g_x, g_y):
        for row in rows(g):
            scatter_accumulate(row, forest.up, -row)
    return g_x, g_y
