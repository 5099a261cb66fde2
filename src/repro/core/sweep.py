"""The compiled timing sweep: one C loop per sweep instead of one NumPy call
per operation per level.

The timers' level loops and the Elmore model's tree passes run in
``sweep.c`` (built by :mod:`repro.core.cbuild`), reading a
:class:`~repro.sta.graph.LevelPlan`, the graph's
:class:`~repro.sta.nldm.LutBank` and a :class:`~repro.route.tree.Forest`
in place:

- :func:`sweep_forward` - arrival times and slews over the levels, merged
  with ``max``/``min`` (golden STA) or ``LSE_gamma`` (the differentiable
  timer, Equation (5)), taping the candidates and LUT partials;
- :func:`sweep_backward` - the differentiable timer's adjoint of that
  sweep (Equations (10) and (12)) for all seeds at once;
- :func:`sweep_required` - golden STA's required-time sweep;
- :func:`elmore_moments`, :func:`tree_sum_into_parents`,
  :func:`tree_add_from_parents` - the four Elmore passes of Equation (7)
  and the per-row passes of their adjoints.

Results are bit for bit those of the NumPy kernels they replaced
(``tests/reference_sweep.py``).  ``exp`` and ``log`` stay NumPy's: its
vectorised versions round differently from the C library's, so an LSE
level is three C calls around one ``np.exp`` and one ``np.log``.

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
    "sweep_forward",
    "sweep_backward",
    "sweep_required",
    "elmore_moments",
    "tree_sum_into_parents",
    "tree_add_from_parents",
]

ffi, lib = load_kernels()

_CTYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.int32): "int32_t[]",
}


def _buffer(array: Optional[np.ndarray], keep: Optional[List] = None):
    """A C pointer into ``array`` (``NULL`` for None), which must be
    C-contiguous and of a dtype the kernels read; ``keep`` holds it."""
    if array is None:
        return ffi.NULL
    if not array.flags.c_contiguous or array.dtype not in _CTYPES:
        raise TypeError(
            f"compiled sweep needs C-contiguous float64/int64/int32 arrays, "
            f"got {array.dtype} {'' if array.flags.c_contiguous else 'strided '}"
            f"{array.shape}"
        )
    pointer = ffi.from_buffer(_CTYPES[array.dtype], array)
    if keep is not None:
        keep.append(pointer)
    return pointer


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
        p.n_levels, p.levels, p.n_contribs = n_levels, self.levels, plan.n_contribs
        p.c_src, p.c_dst, p.lut = buf(plan.c_src), buf(plan.c_dst), buf(plan.lut)
        p.net_sink, p.net_src = buf(plan.net_sink), buf(plan.net_src)
        self.work = np.empty(max((k for k, _ in sizes), default=0))
        self.seg = np.empty((3, max((t for _, t in sizes), default=0)))
        #: Per level, the views NumPy's exp and log run in (None: no cells).
        self.lse_views = [
            (self.work[:k], self.seg[2, :t]) if k else None for k, t in sizes
        ]
        self.reverse = None

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
    backward="repro.core.sweep.sweep_backward",
    gradcheck="tests/test_difftimer.py::TestBackwardFiniteDifference"
    "::test_gradient_matches_fd",
)
def sweep_forward(
    plan,
    lutbank,
    load,
    net_delay: np.ndarray,
    impulse2: np.ndarray,
    at: np.ndarray,
    slew: np.ndarray,
    merge: str,
    gamma: float,
    tape,
) -> None:
    """Forward sweep of arrival times and slews over the levels (in place).

    ``at``/``slew`` are the flat ``(2 * n_pins,)`` timer arrays, holding
    the boundary values; ``load`` is the sweep's
    :meth:`~repro.sta.nldm.LutBank.locate_load` of every contribution and
    ``net_delay``/``impulse2`` the per-pin Elmore outputs.  ``merge`` is
    ``"max"``, ``"min"`` or ``"lse"`` (smoothed by ``gamma``).  ``tape``
    (a :class:`~repro.core.cell_prop.SweepTape`) receives the merge
    candidates and, where it has rows for them, the arc delays and the
    LUT partials, the latter zeroed where the slew clip was active.
    """
    if merge not in ("max", "min", "lse"):
        raise ValueError(f"unknown merge {merge!r}; expected max, min or lse")
    view = _plan_view(plan)
    buf = functools.partial(_buffer, keep=[])
    sw = ffi.new("sweep_t *")
    sw.at, sw.slew = buf(at), buf(slew)
    sw.cand, sw.delay = buf(tape.cand), buf(tape.delay)
    sw.d_dslew, sw.d_dload = buf(tape.d_dslew), buf(tape.d_dload)
    sw.corner, sw.ty, sw.dy = buf(load.corner), buf(load.ty), buf(load.dy)
    sw.load_stride = plan.n_contribs if load.ty.ndim == 2 else 0
    sw.net_delay, sw.impulse2 = buf(net_delay), buf(impulse2)
    sw.values, sw.x_axis, sw.x_len = (
        buf(lutbank.values), buf(lutbank.x), buf(lutbank.x_len)
    )
    sw.nx, sw.ny = lutbank.x.shape[1], lutbank.y.shape[1]
    sw.slew_clip, sw.gamma = cell_prop.SLEW_CLIP_MAX, gamma
    sw.work = buf(view.work)
    sw.seg_max, sw.seg_sum, sw.seg_log = (buf(row) for row in view.seg)
    p = view.plan
    if merge == "lse":
        for level, views in enumerate(view.lse_views):
            lib.lse_candidates(p, sw, level)
            if views is not None:
                exponents, logs = views
                np.exp(exponents, out=exponents)
                lib.lse_sum(p, sw, level)
                np.log(logs, out=logs)
                lib.lse_merge(p, sw, level)
    else:
        lib.sweep_exact(p, sw, merge == "min")
    if tape.d_dslew is not None:
        lib.zero_clipped(p, sw)


def sweep_backward(
    plan,
    w_cand: np.ndarray,
    d_dslew: np.ndarray,
    slew: np.ndarray,
    g_at: np.ndarray,
    g_slew: np.ndarray,
    n_seeds: int,
) -> None:
    """Adjoint of :func:`sweep_forward` under the LSE merge, in place.

    ``w_cand`` are the ``(2, n_contribs)`` merge weights of the AT and
    slew candidates, ``d_dslew`` the taped LUT slew partials and ``slew``
    the flat forward slews (for the net arcs' ``Slew(u) / Slew(v)``).
    ``g_at``/``g_slew`` hold the flat gradients of ``n_seeds`` seeds,
    seed ``s`` in the ``2 * n_pins`` slots from ``s * 2 * n_pins``, with
    the endpoint seeds in place; every level's sink gradients are pushed
    onto its sources, from the last level back.
    """
    p = _plan_view(plan).plan
    lib.sweep_adjoint(
        p, _buffer(g_at), _buffer(g_slew), n_seeds, 2 * plan.n_pins,
        _buffer(w_cand), _buffer(d_dslew), _buffer(slew),
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
        order, parent, group_of, groups, level_start, group_start = forest.level_tables
        f = ffi.new("forest_t *")
        f.n_nodes, f.max_depth = forest.n_nodes, forest.max_depth
        f.order, f.parent = _buffer(order, keep), _buffer(parent, keep)
        f.group_of, f.groups = _buffer(group_of, keep), _buffer(groups, keep)
        f.level_start = _buffer(level_start, keep)
        f.group_start = _buffer(group_start, keep)
        widest = int(np.diff(group_start).max()) if len(group_start) > 1 else 0
        forest.kernel_view = (f, keep, np.empty(widest))
    return forest.kernel_view


def elmore_moments(
    forest, cap: np.ndarray, edge_res: np.ndarray
) -> tuple:
    """The four passes of Equation (7) over ``forest``.

    Returns ``(load, delay, ldelay, beta)`` per node: Load (bottom-up,
    ``Cap(u)`` plus the children's loads), Delay (top-down, the parent's
    plus ``Res * Load``), LDelay (bottom-up over ``Cap * Delay``) and Beta
    (top-down, the parent's plus ``Res * LDelay``).
    """
    f, _, scratch = _forest_view(forest)
    n = forest.n_nodes
    load, delay, ldelay, beta = cap.copy(), np.zeros(n), np.empty(n), np.zeros(n)
    lib.elmore_moments(
        f, _buffer(cap), _buffer(edge_res), _buffer(load), _buffer(delay),
        _buffer(ldelay), _buffer(beta), _buffer(scratch),
    )
    return load, delay, ldelay, beta


def tree_sum_into_parents(forest, g: np.ndarray) -> None:
    """``g[fa(v)] += g[v]`` in every row of ``(..., n_nodes)`` ``g``,
    deepest level first (the adjoint of a top-down pass)."""
    f = _forest_view(forest)[0]
    lib.tree_sum_into_parents(f, _buffer(g), g.size // max(forest.n_nodes, 1))


def tree_add_from_parents(forest, g: np.ndarray) -> None:
    """``g[v] += g[fa(v)]`` in every row of ``g``, roots first (the
    adjoint of a bottom-up pass)."""
    f = _forest_view(forest)[0]
    lib.tree_add_from_parents(f, _buffer(g), g.size // max(forest.n_nodes, 1))
