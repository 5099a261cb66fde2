"""The compiled timer: each timer call is a few C passes around NumPy's
``exp`` and ``log``.

The timers' level loops, the Elmore model and everything between them
run in ``sweep.c`` (built by :mod:`repro.core.cbuild`), reading a
:class:`~repro.sta.graph.LevelPlan`, the graph's
:class:`~repro.sta.nldm.LutBank` and a :class:`~repro.route.tree.Forest`
in place:

- :func:`elmore_prepass` - the pre-pass: pin (or node) coordinates to
  the Elmore moments of Equation (7) and the timers' per-pin inputs;
- :func:`start_state` and :func:`sweep_forward` - arrival times and
  slews over the levels from the start pins' boundary values,
  merged with ``max``/``min`` (golden STA) or ``LSE_gamma`` (the
  differentiable timer, Equation (5)), taping the candidates and LUT
  partials;
- :func:`endpoint_slacks` - the post-pass: endpoint required times,
  their setup slew partials and the slacks;
- :func:`sweep_required` - golden STA's required-time sweep;
- :func:`cand_exponents` and :func:`timer_adjoint` - the differentiable
  timer's backward pass (Equations (8), (10) and (12)) for all seeds,
  from the endpoint seeds to the cell gradients;
- :func:`elmore_adjoint` - Equation (8) alone.

Results are bit for bit those of the NumPy code they replaced
(``tests/reference_sweep.py``, ``tests/reference_timer.py``).  ``exp``
and ``log`` stay NumPy's: its vectorised versions round differently from
the C library's, so an LSE sweep is two C calls around one ``np.exp``
and one ``np.log`` per level with cell arcs, and the backward pass one C
call on each side of the ``np.exp`` of the merge weights.

A plan's and a forest's C tables point into their arrays and are built on
first use (:attr:`LevelPlan.kernel_view`, :attr:`Forest.kernel_view`).
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from ..contracts import differentiable
from . import cell_prop
from .cbuild import load_kernels

__all__ = [
    "start_state",
    "sweep_forward",
    "sweep_required",
    "endpoint_slacks",
    "elmore_prepass",
    "elmore_adjoint",
    "cand_exponents",
    "timer_adjoint",
]

ffi, lib = load_kernels()

_CTYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.int32): "int32_t[]",
    np.dtype(np.int8): "int8_t[]",
    np.dtype(np.bool_): "uint8_t[]",
}


def _buffer(array: Optional[np.ndarray], keep: Optional[List] = None):
    """A C pointer into ``array`` (``NULL`` for None), which must be
    C-contiguous and of a dtype the kernels read; ``keep`` holds it."""
    if array is None:
        return ffi.NULL
    ctype = _CTYPES.get(array.dtype)
    if ctype is None or not array.flags.c_contiguous:
        raise TypeError(
            f"compiled timer needs C-contiguous float64/int64/int32/int8/bool "
            f"arrays, got {array.dtype} "
            f"{'' if array.flags.c_contiguous else 'strided '}{array.shape}"
        )
    pointer = ffi.from_buffer(ctype, array)
    if keep is not None:
        keep.append(pointer)
    return pointer


def _doubles(array: np.ndarray):
    """A pointer into a float64 array this module allocated."""
    return ffi.from_buffer("double[]", array)


class _PlanView:
    """A :class:`LevelPlan` as the kernels read it, and the LSE buffers
    (one sweep of a plan at a time: the timers of a graph run in turn)."""

    def __init__(self, plan) -> None:
        self.keep: List = []
        buf = functools.partial(_buffer, keep=self.keep)
        n_levels = len(plan.levels)
        self.levels = ffi.new("level_t[]", n_levels)
        sizes = []
        for index, (net, cell) in enumerate(plan.levels):
            lv = self.levels[index]
            if net is not None:
                lv.net_lo, lv.net_hi = net.sl2.start // 2, net.sl2.stop // 2
            k = n_touched = 0
            if cell is not None:
                lv.c_lo, lv.c_hi = cell.sl.start, cell.sl.stop
                lv.seg, lv.touched = buf(cell.seg), buf(cell.touched)
                lv.n_touched = n_touched = len(cell.touched)
                lv.x_shared = cell.query.x_axis >= 0
                k = cell.sl.stop - cell.sl.start
            sizes.append((2 * k, 2 * n_touched))
        self.plan = p = ffi.new("plan_t *")
        p.n_levels, p.levels = n_levels, self.levels
        p.n_pins, p.n_contribs = plan.n_pins, plan.n_contribs
        p.c_src, p.c_dst, p.lut = buf(plan.c_src), buf(plan.c_dst), buf(plan.lut)
        p.y_shared = plan.query.y_axis >= 0
        p.n_net_arcs = len(plan.net_sink)
        p.net_sink, p.net_src = buf(plan.net_sink), buf(plan.net_src)
        p.is_net_sink = buf(plan.is_net_sink)
        p.n_start, p.start_pins = len(plan.start_pins), buf(plan.start_pins)
        self.work = np.empty(max((k for k, _ in sizes), default=0))
        self.seg = np.empty((3, max((t for _, t in sizes), default=0)))
        #: Per level with cell arcs, the views NumPy's exp and log run in.
        self.lse_views = [
            (level, self.work[:k], self.seg[2, :t])
            for level, (k, t) in enumerate(sizes) if k
        ]
        self.sweep = sw = ffi.new("sweep_t *")
        sw.work = buf(self.work)
        sw.seg_max, sw.seg_sum, sw.seg_log = (buf(row) for row in self.seg)
        self.bank_arrays = None
        self.endpoints = None
        self.reverse = None

    def bank(self, lutbank):
        """``bank_t`` of ``lutbank`` (rebuilt if its arrays were replaced)."""
        arrays = (lutbank.values, lutbank.x, lutbank.y, lutbank.x_len, lutbank.y_len)
        if self.bank_arrays is None or any(
            a is not b for a, b in zip(arrays, self.bank_arrays)
        ):
            keep: List = []
            b = ffi.new("bank_t *")
            b.values, b.x_axis, b.y_axis, b.x_len, b.y_len = (
                _buffer(a, keep) for a in arrays
            )
            b.nx, b.ny = lutbank.x.shape[1], lutbank.y.shape[1]
            self.bank_arrays, self.bank_t = arrays, (b, keep)
        return self.bank_t[0]

    def endpoint_tables(self, plan):
        """``endpoints_t`` of the plan (built on first use)."""
        if self.endpoints is None:
            tables = plan.endpoints
            buf = functools.partial(_buffer, keep=self.keep)
            ep = ffi.new("endpoints_t *")
            ep.n_endpoints, ep.n_setup = len(tables.slots), len(tables.setup_lut)
            ep.slots, ep.setup_lut = buf(tables.slots), buf(tables.setup_lut)
            ep.x_shared = tables.setup_query.x_axis >= 0
            ep.y_shared = tables.setup_query.y_axis >= 0
            ep.output_delay = buf(tables.output_delay)
            ep.clock_slew = tables.clock_slew
            self.endpoints = ep
        return self.endpoints

    def required_tables(self, plan) -> np.ndarray:
        """Fill in the reverse segments of the golden required-time sweep
        (built on first use); returns its scratch."""
        if self.reverse is None:
            buf = functools.partial(_buffer, keep=self.keep)
            widest = 0
            for index, (runs, sources) in enumerate(plan.reverse):
                lv = self.levels[index]
                if sources is not None:
                    lv.src_seg, lv.src_touched = buf(sources.seg), buf(sources.touched)
                    lv.n_src_touched = len(sources.touched)
                    widest = max(widest, len(sources.touched))
                if runs is not None:
                    lv.run_starts, lv.run_drivers = buf(runs.starts), buf(runs.drivers)
                    lv.n_runs = len(runs.starts)
            self.reverse = np.empty(widest)
        return self.reverse


def _plan_view(plan) -> _PlanView:
    if plan.kernel_view is None:
        plan.kernel_view = _PlanView(plan)
    return plan.kernel_view


@differentiable(
    backward="repro.core.sweep.timer_adjoint",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def sweep_forward(
    plan,
    lutbank,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    driver_load: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
    merge: str,
    gamma: float,
    tape,
) -> None:
    """Forward sweep of arrival times and slews over the levels (in place).

    ``at``/``slew`` are the flat ``(2 * n_pins,)`` timer arrays, holding
    the boundary values; ``net_delay``/``impulse2``/``driver_load`` are
    the per-pin outputs of :func:`elmore_prepass` (a contribution's load
    is its sink pin's ``driver_load``, placed on the load axis of its
    tables as :meth:`~repro.sta.nldm.LutBank.locate_load` does).
    ``merge`` is ``"max"``, ``"min"`` or ``"lse"`` (smoothed by
    ``gamma``).  ``tape`` (a :class:`~repro.core.cell_prop.SweepTape`)
    receives the merge candidates and, where it has rows for them, the
    arc delays and the LUT partials, the latter zeroed where the slew
    clip was active.
    """
    if merge not in ("max", "min", "lse"):
        raise ValueError(f"unknown merge {merge!r}; expected max, min or lse")
    view = _plan_view(plan)
    keep: List = []
    buf = functools.partial(_buffer, keep=keep)
    sw = view.sweep
    sw.at, sw.slew = buf(at), buf(slew)
    sw.cand, sw.delay = buf(tape.cand), buf(tape.delay)
    sw.d_dslew, sw.d_dload = buf(tape.d_dslew), buf(tape.d_dload)
    sw.net_delay, sw.impulse2 = buf(net_delay), buf(impulse2)
    sw.driver_load = buf(driver_load)
    sw.bank = view.bank(lutbank)
    sw.slew_clip, sw.gamma = cell_prop.SLEW_CLIP_MAX, gamma
    p = view.plan
    if merge == "lse":
        merged = -1
        for level, exponents, logs in view.lse_views:
            lib.lse_step(p, sw, merged, level)
            np.exp(exponents, out=exponents)
            lib.lse_sum(p, sw, level)
            np.log(logs, out=logs)
            merged = level
        lib.lse_step(p, sw, merged, len(plan.levels))
    else:
        lib.sweep_exact(p, sw, merge == "min")
    if tape.d_dslew is not None:
        lib.zero_clipped(p, sw)


def start_state(
    plan, fill_at: float, fill_slew: float, start_at: np.ndarray,
    start_slew: np.ndarray,
):
    """Fresh ``(n_pins, 2)`` arrival-time and slew arrays: the fills
    everywhere but at ``plan.start_pins``, which take the ``(n_start, 2)``
    rows of ``start_at`` / ``start_slew``."""
    at, slew = np.empty((plan.n_pins, 2)), np.empty((plan.n_pins, 2))
    lib.start_state(
        _plan_view(plan).plan, _doubles(at), _doubles(slew), fill_at,
        fill_slew, _buffer(start_at), _buffer(start_slew),
    )
    return at, slew


def endpoint_slacks(
    plan,
    lutbank,
    period: float,
    slew_clip: float,
    at: Optional[np.ndarray],
    slew: np.ndarray,
    ck_at: Optional[np.ndarray] = None,
    ck_slew: Optional[np.ndarray] = None,
    rat: Optional[np.ndarray] = None,
    ep_slack_t: Optional[np.ndarray] = None,
    dsetup: Optional[np.ndarray] = None,
) -> None:
    """Required times at the plan's endpoints (setup checks, then output
    ports), into whichever outputs are given.

    ``at``/``slew`` are the flat swept arrays; ``ck_at``/``ck_slew`` the
    capturing clock's arrival and slew per setup check (None: the ideal
    clock).  ``rat`` (flat ``(2 * n_pins,)``) receives the required times
    in the endpoint slots, ``ep_slack_t`` (``(n_endpoints, 2)``) the
    slacks ``rat - at``, ``dsetup`` (``(n_setup, 2)``) the setup times'
    slew partials, zero where the slew clip is active.
    """
    view = _plan_view(plan)
    ep = view.endpoint_tables(plan)
    ep.period = period
    lib.endpoint_slacks(
        ep, view.bank(lutbank), slew_clip, _buffer(at), _buffer(slew),
        _buffer(ck_at), _buffer(ck_slew), _buffer(rat), _buffer(ep_slack_t),
        _buffer(dsetup),
    )


def sweep_required(
    plan, rat: np.ndarray, arc_delay: np.ndarray, net_delay: np.ndarray
) -> None:
    """Golden STA's late required times, swept back from the endpoints.

    ``rat`` is the flat ``(2 * n_pins,)`` array holding the endpoint
    required times (``+1e30`` elsewhere); ``arc_delay`` the per-
    contribution delays of the forward sweep, ``net_delay`` the per-pin
    wire delays.  A cell level's sources take the minimum of ``RAT(v) -
    Delay`` over their fan-out contributions, a net's driver that over
    its sinks.
    """
    view = _plan_view(plan)
    scratch = view.required_tables(plan)
    lib.sweep_required(
        view.plan, _buffer(rat), _buffer(arc_delay), _buffer(net_delay),
        _buffer(scratch),
    )


def _forest_view(forest):
    """``forest_t`` of a :class:`Forest` (built on first use)."""
    if forest.kernel_view is None:
        keep: List = []
        buf = functools.partial(_buffer, keep=keep)
        order, parent, group_of, groups, level_start, group_start = forest.level_tables
        f = ffi.new("forest_t *")
        f.n_nodes, f.max_depth = forest.n_nodes, forest.max_depth
        f.n_pins = forest.n_pins_total
        f.order, f.parent = buf(order), buf(parent)
        f.group_of, f.groups = buf(group_of), buf(groups)
        f.level_start, f.group_start = buf(level_start), buf(group_start)
        f.up = buf(forest.up)
        f.owner_x = buf(forest.owner_x_pin.astype(np.int64, copy=False))
        f.owner_y = buf(forest.owner_y_pin.astype(np.int64, copy=False))
        f.n_pin_nodes, f.n_drivers = len(forest.pin_nodes), len(forest.driver_nodes)
        f.pin_nodes, f.pins_of_nodes = buf(forest.pin_nodes), buf(forest.pins_of_nodes)
        f.driver_nodes, f.driver_pins = buf(forest.driver_nodes), buf(forest.driver_pins)
        widest = int(np.diff(group_start).max()) if len(group_start) > 1 else 0
        f.scratch = buf(np.empty(widest))
        forest.kernel_view = (f, keep)
    return forest.kernel_view[0]


#: ``np.log(2.0)``, the D2M metric's constant.
_LN2 = float(np.log(2.0))


def _wire(wire, d2m: bool = False):
    return ffi.new("wire_t *", [wire.res_per_um, wire.cap_per_um, d2m, _LN2])


def elmore_prepass(
    forest,
    x: np.ndarray,
    y: np.ndarray,
    intrinsic_cap: np.ndarray,
    wire,
    at_pins: bool = False,
    wire_delay_model: Optional[str] = None,
):
    """Equation (7) over ``forest`` at node coordinates ``x``/``y`` or,
    with ``at_pins``, at pin coordinates (each node reading the pins that
    own its coordinates, :meth:`Forest.node_coords`).

    Returns ``(nodes, dirs, pins, view)``: the ``(6, n_nodes)`` edge
    resistance, capacitance, Load, Delay, LDelay and Beta, the int8 edge
    signs along x and y, with a ``wire_delay_model`` the ``(3, n_pins)``
    per-pin timer inputs (the wire delay - Elmore or D2M - and squared
    impulse at the pins, the net load at the driver pins, zero off the
    forest; else None), and the C view of the first two.
    """
    n = forest.n_nodes
    points = forest.n_pins_total if at_pins else n
    if len(x) != points or len(y) != points or len(intrinsic_cap) != n:
        raise ValueError(
            f"coordinates of {len(x)} / {len(y)} and caps of "
            f"{len(intrinsic_cap)} for a forest of {n} nodes over "
            f"{forest.n_pins_total} pins"
        )
    f = _forest_view(forest)
    keep: List = []
    nodes = np.empty((6, n))
    dirs = np.empty((2, n), dtype=np.int8)
    e = ffi.new("elmore_t *")
    keep += [_doubles(row) for row in nodes]
    keep += [ffi.from_buffer("int8_t[]", row) for row in dirs]
    e.edge_res, e.cap, e.load, e.delay, e.ldelay, e.beta, e.dir_x, e.dir_y = keep
    pins = None
    if wire_delay_model is not None:
        pins = np.empty((3, forest.n_pins_total))
    lib.elmore_forward(
        f, _buffer(x), _buffer(y), at_pins, _buffer(intrinsic_cap),
        _wire(wire, wire_delay_model == "d2m"), e,
        ffi.NULL if pins is None else _doubles(pins),
    )
    return nodes, dirs, pins, (e, keep)


def _elmore_view(elm):
    """``elmore_t`` of an :class:`~repro.sta.elmore.ElmoreResult` (kept on
    it; the forward pass leaves its own)."""
    view = elm.kernel_view
    if view is None:
        keep: List = []
        e = ffi.new("elmore_t *")
        e.edge_res, e.cap, e.load, e.delay, e.ldelay, e.beta = (
            _buffer(getattr(elm, name), keep)
            for name in ("edge_res", "cap", "load", "delay", "ldelay", "beta")
        )
        e.dir_x, e.dir_y = _buffer(elm.dir_x, keep), _buffer(elm.dir_y, keep)
        view = elm.kernel_view = (e, keep)
    return view[0]


def elmore_adjoint(
    forest,
    elm,
    wire,
    g_delay: np.ndarray,
    g_imp2: np.ndarray,
    g_load: np.ndarray,
    g_beta: Optional[np.ndarray] = None,
):
    """Equation (8) in each row of the ``(n_rows, n_nodes)`` node
    gradients (their buffers are overwritten); returns ``(g_x, g_y)``."""
    g_x, g_y = np.empty_like(g_delay), np.empty_like(g_delay)
    n_rows = g_delay.size // max(forest.n_nodes, 1)
    lib.elmore_adjoint(
        _forest_view(forest), _elmore_view(elm), _wire(wire), n_rows,
        _buffer(g_delay), _buffer(g_imp2), _buffer(g_load), _buffer(g_beta),
        _doubles(g_x), _doubles(g_y), _doubles(np.empty(2 * forest.n_nodes)),
    )
    return g_x, g_y


def cand_exponents(
    plan, at: np.ndarray, slew: np.ndarray, cand: np.ndarray, gamma: float
) -> np.ndarray:
    """``(2, n_contribs)`` exponents of the merge weights ``w = exp((x -
    LSE) / gamma)`` of every AT | slew candidate, clamped to [-700, 0]."""
    out = np.empty((2, plan.n_contribs))
    lib.cand_exponents(
        _plan_view(plan).plan, _buffer(at), _buffer(slew), _buffer(cand),
        gamma, _doubles(out),
    )
    return out


def timer_adjoint(
    plan,
    design,
    fixed_cells: np.ndarray,
    tape,
    seeds: np.ndarray,
    g_tns: np.ndarray,
    w_ep: np.ndarray,
    w_t: np.ndarray,
    w_cand: np.ndarray,
    dd_dm: Optional[tuple] = None,
) -> np.ndarray:
    """The differentiable timer's backward pass for every seed.

    ``seeds`` is ``(n_seeds, 2)`` of ``(d_tns, d_wns)``; ``g_tns``,
    ``w_ep`` and ``w_t`` are the per-endpoint softmin derivatives,
    ``w_cand`` the merge weights (from :func:`cand_exponents`) and
    ``dd_dm`` the D2M metric's partials per pin node (None under Elmore).
    Returns the ``(2, n_seeds, n_cells)`` cell gradients, x then y, zero
    at ``fixed_cells``.
    """
    view = _plan_view(plan)
    forest = tape.forest
    f = _forest_view(forest)
    n_seeds = len(seeds)
    g_cells = np.empty((2, n_seeds, design.n_cells))
    work = np.empty(lib.adjoint_work_size(view.plan, f))
    keep: List = []
    buf = functools.partial(_buffer, keep=keep)
    a = ffi.new("adjoint_t *")
    a.n_seeds, a.seeds = n_seeds, buf(seeds)
    a.g_tns, a.w_ep, a.w_t = buf(g_tns), buf(w_ep), buf(w_t)
    a.dsetup, a.w_cand = buf(tape.setup_dsetup_dslew), buf(w_cand)
    a.d_dslew, a.d_dload, a.slew = buf(tape.d_dslew), buf(tape.d_dload), buf(tape.slew)
    if dd_dm is not None:
        a.dd_dm1, a.dd_dm2 = buf(dd_dm[0]), buf(dd_dm[1])
    a.n_cells, a.n_fixed = design.n_cells, len(fixed_cells)
    a.pin2cell, a.fixed = buf(design.pin2cell), buf(fixed_cells)
    a.work, a.g_cells = _doubles(work), _doubles(g_cells)
    lib.timer_adjoint(
        view.plan, view.endpoint_tables(plan), f,
        _elmore_view(tape.elmore), _wire(design.library.wire), a,
    )
    return g_cells
