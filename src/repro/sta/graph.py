"""Timing-graph construction and levelisation.

Builds the pin-level DAG of STA (Figure 1 of the paper): net arcs from each
net's driver to its sinks, and cell arcs from cell input pins to output
pins, expanded into per-transition *contributions* according to arc
unateness.  Pins are assigned logical levels by a longest-path topological
sort - done once, since levels do not depend on pin locations (step (1) of
the paper's Section 3.3) - and all arc tables are sorted by the level of
their sink so that both timers can sweep level by level with vectorised
kernels.

Clock nets are not propagation arcs (ideal clock): flip-flop CK pins are
start points with arrival time zero, and the CK->Q arc launches paths.
Setup checks at FF D pins and output ports are the timing endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..netlist.design import (
    Design,
    PORT_IN_TYPE,
    PORT_OUT_TYPE,
    flatten_pins,
    rows_by_cell,
)
from ..netlist.library import ArcKind, CellType, FALL, RISE, TimingArc
from ..route.tree import gather_csr
from .nldm import LutBank, LutQuery

__all__ = [
    "CombinationalCycleError",
    "TimingGraph",
    "LevelizedArcs",
    "LevelPlan",
    "levelize",
]


class CombinationalCycleError(ValueError):
    """The propagation edge set contains a combinational cycle.

    Carries the pin indices of one example cycle (``cycle_pins``, in walk
    order) and the total number of pins levelisation could not reach, so
    callers - the design validator in particular - can name the offending
    logic instead of reporting a generic failure.
    """

    def __init__(
        self,
        cycle_pins: Sequence[int],
        n_unreachable: int,
        pin_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.cycle_pins = [int(p) for p in cycle_pins]
        self.n_unreachable = int(n_unreachable)
        if pin_names is not None:
            shown = [str(pin_names[p]) for p in self.cycle_pins]
        else:
            shown = [f"pin#{p}" for p in self.cycle_pins]
        preview = " -> ".join(shown[:8])
        if len(shown) > 8:
            preview += f" -> ... ({len(shown)} pins on the cycle)"
        super().__init__(
            "timing graph has a combinational cycle "
            f"({self.n_unreachable} pins unreachable); example cycle: "
            f"{preview} -> {shown[0]}"
        )


def _example_cycle(
    edges_src: np.ndarray, edges_dst: np.ndarray, unresolved: np.ndarray
) -> List[int]:
    """Extract one cycle from the pins levelisation could not resolve.

    Every unresolved pin has at least one unprocessed in-edge whose source
    is itself unresolved, so walking predecessors inside the unresolved
    set must revisit a pin - that revisit closes a cycle.
    """
    mask = unresolved[edges_src] & unresolved[edges_dst]
    pred: dict = {}
    for s, d in zip(edges_src[mask].tolist(), edges_dst[mask].tolist()):
        pred.setdefault(d, s)
    if not pred:
        return []
    node = next(iter(pred))
    seen: dict = {}
    path: List[int] = []
    while node is not None and node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = pred.get(node)
    if node is None:
        return path  # defensive: dead-ends only, no closed walk found
    return path[seen[node]:]


def levelize(
    edges_src: np.ndarray,
    edges_dst: np.ndarray,
    n_pins: int,
    pin_names: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Longest-path levels of a pin DAG via wave-vectorised Kahn sweep.

    One whole frontier wave is processed per iteration: the frontier's
    out-edges are gathered from a CSR table in a single batch, sink levels
    are raised with a scatter-max and in-degrees are decremented with one
    bincount per wave.  Raises :class:`CombinationalCycleError` (a
    ``ValueError``) naming an example cycle when the edge set is not a
    DAG; ``pin_names`` (if given) makes the message name actual pins.
    """
    level = np.zeros(n_pins, dtype=np.int64)
    indegree = np.bincount(edges_dst, minlength=n_pins)
    frontier = np.nonzero(indegree == 0)[0]
    remaining = indegree.copy()
    order_dst = np.argsort(edges_src, kind="stable") if len(edges_src) else None
    dst_sorted = edges_dst[order_dst] if order_dst is not None else edges_dst
    out_start = np.zeros(n_pins + 1, dtype=np.int64)
    if len(edges_src):
        np.cumsum(np.bincount(edges_src, minlength=n_pins), out=out_start[1:])
    visited = 0
    while len(frontier):
        visited += len(frontier)
        starts = out_start[frontier]
        counts = out_start[frontier + 1] - starts
        sinks = dst_sorted[gather_csr(starts, counts)]
        if not len(sinks):
            break
        # reprolint: allow[no-scatter-add-at] integer longest-path levels, once per graph build; exact in any fold order
        np.maximum.at(level, sinks, np.repeat(level[frontier] + 1, counts))
        remaining -= np.bincount(sinks, minlength=n_pins)
        candidates = np.unique(sinks)
        frontier = candidates[remaining[candidates] == 0]
    if visited != n_pins:
        unresolved = remaining > 0
        raise CombinationalCycleError(
            _example_cycle(edges_src, edges_dst, unresolved),
            n_pins - visited,
            pin_names,
        )
    return level


@dataclass
class LevelizedArcs:
    """Arc arrays sorted by sink-pin level with per-level offsets.

    ``offsets[l] : offsets[l + 1]`` slices out the arcs whose sink pin sits
    at level ``l``.
    """

    offsets: np.ndarray

    def level_slice(self, level: int) -> slice:
        return slice(self.offsets[level], self.offsets[level + 1])


def _sort_by_level(level_of: np.ndarray, n_levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stable-sort arc indices by level; returns (order, offsets)."""
    order = np.argsort(level_of, kind="stable")
    counts = np.bincount(level_of, minlength=n_levels)
    offsets = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


class NetLevel(NamedTuple):
    """One level's net arcs, as index arrays ready for the sweep kernels."""

    sinks: np.ndarray  # (k,) sink pins
    srcs: np.ndarray  # (k,) driver pins
    sink_flat: np.ndarray  # (2k,) ``pin * 2 + transition`` of the sinks
    src_flat: np.ndarray  # (2k,) the same of their drivers
    sl2: slice  # into flat per-(arc, transition) arrays of the sweep


class CellLevel(NamedTuple):
    """One level's cell-arc contributions.

    ``seg`` holds compact merge-segment ids for the stacked AT|slew
    candidates of the level: contribution ``c`` merges into segment
    ``seg[c]`` (its AT) and ``seg[k + c]`` (its slew), and segment ``s``
    is the ``(pin, transition)`` slot ``touched[s % len(touched)]``.
    """

    sl: slice  # into the per-contribution tape of the sweep
    src: np.ndarray  # (k,) ``pin * 2 + transition`` of each source
    dst: np.ndarray  # (k,) the same of each sink
    pin: np.ndarray  # (k,) sink pin (whose net load the arc drives)
    seg: np.ndarray  # (2k,)
    touched: np.ndarray  # sorted distinct ``dst``
    lut: np.ndarray  # (2, k) delay | slew table ids
    query: LutQuery  # the same ids, bound to the graph's LUT bank


class NetRuns(NamedTuple):
    """Net -> arc CSR over a stretch of the level-sorted net-arc table.

    A net's sinks share one level (a sink's only fan-in is its driver),
    so its arcs stay contiguous under the stable sort by sink level: net
    ``ids[j]``, driven by pin ``drivers[j]``, owns the arcs
    ``starts[j] : starts[j + 1]`` of the stretch.
    """

    starts: np.ndarray
    drivers: np.ndarray
    ids: np.ndarray


class SourceSegments(NamedTuple):
    """A cell level's contributions grouped by *source* slot: contribution
    ``c`` reads the slot ``touched[seg[c]]``."""

    seg: np.ndarray  # (k,)
    touched: np.ndarray  # sorted distinct ``CellLevel.src``


Levels = List[Tuple[Optional[NetLevel], Optional[CellLevel]]]


class EndpointTables(NamedTuple):
    """Static side of the endpoint slacks (setup checks, then ports)."""

    slots: np.ndarray  # (n_endpoints, 2) ``pin * 2 + transition``
    setup_lut: np.ndarray  # (n_setup, 2) rise | fall constraint tables
    setup_query: LutQuery  # the same, bound: which axes they share
    output_delay: np.ndarray  # (n_ports,) of the output ports
    clock_slew: float  # the ideal clock's slew


def _flat_slots(pins: np.ndarray) -> np.ndarray:
    """``pin * 2 + transition`` of both transitions of ``pins``, interleaved."""
    return (pins[:, None] * 2 + np.arange(2)).ravel()


class LevelPlan:
    """Per-level gather/scatter/segment indices of a :class:`TimingGraph`.

    Levels do not depend on pin locations (Section 3.3), so everything the
    level sweeps of all three timers index with is computed once here
    (lazily, as :attr:`TimingGraph.plan`) instead of on every pass.
    ``levels[l - 1]`` is the ``(net, cell)`` pair of level ``l`` (``None``
    where the level has no such arcs) - all a forward sweep and the
    differentiable timer's backward sweep need - each cell level with its
    table ids bound to the graph's LUT bank (flat offsets, the breakpoint
    axis the level's tables share).  What only some callers read is built
    on its first use: :attr:`endpoints`, the by-sink CSR and
    :attr:`net_arc_of` of path tracing, :attr:`reverse` and
    :attr:`net_runs` of the golden required-time sweep.  Beyond the
    start-pin boundary values the plan holds index arrays only -
    O(contributions + net arcs + pins), reported by :attr:`nbytes` - and
    is rebuilt from the graph rather than pickled with it.
    """

    def __init__(self, graph: "TimingGraph") -> None:
        self.n_pins = len(graph.level)
        self.n_contribs = len(graph.c_dst)
        #: Flat ``pin * 2 + transition`` slots of every contribution.
        self.c_dst = graph.c_dst * 2 + graph.c_tout
        self.c_src = graph.c_src * 2 + graph.c_tin
        #: Delay | slew table ids, ``(2, n_contribs)``, and their binding.
        self.lut = np.stack([graph.c_lut_delay, graph.c_lut_slew])
        self._bank = graph.lutbank
        self.query = query = self._bank.bind(self.lut)
        # The graph tables the lazy members derive from, by reference: no
        # copy, and no graph <-> plan cycle to keep a dropped plan alive.
        self.net_sink, self.net_src = graph.net_sink, graph.net_src
        self._net_of_sink = graph.net_of_sink
        self._net_offsets = graph.net_arcs.offsets
        self._setup = graph.setup_lut, graph.clock_slew, graph.po_output_delay
        self._endpoint_pins = graph.endpoint_pins
        #: Pins with a fan-in net arc.
        self.is_net_sink = np.zeros(self.n_pins, dtype=bool)
        self.is_net_sink[graph.net_sink] = True
        #: Boundary values at the start pins, aligned with them.
        self.start_pins = graph.start_pins
        self.start_at, self.start_slew = graph.start_at, graph.start_slew

        n_sink, n_src = _flat_slots(graph.net_sink), _flat_slots(graph.net_src)
        seg = np.empty(2 * self.n_contribs, dtype=np.int64)
        self._owned = [
            self.c_dst, self.c_src, self.lut, query.offset, n_sink, n_src, seg,
            self.start_at, self.start_slew, self.is_net_sink,
        ]
        #: The plan as the compiled sweep reads it (:mod:`repro.core.sweep`,
        #: pointers into the arrays here), built on the first sweep.
        self.kernel_view = None
        self.levels: Levels = []
        for level in range(1, graph.n_levels):
            sl = graph.net_arcs.level_slice(level)
            a, b = int(sl.start), int(sl.stop)
            net = None
            if b > a:
                sl2 = slice(2 * a, 2 * b)
                net = NetLevel(
                    graph.net_sink[a:b], graph.net_src[a:b],
                    n_sink[sl2], n_src[sl2], sl2,
                )
            sl = graph.cell_arcs.level_slice(level)
            a, b = int(sl.start), int(sl.stop)
            cell = None
            if b > a:
                slots, inverse = np.unique(self.c_dst[a:b], return_inverse=True)
                self._owned.append(slots)
                seg[2 * a : a + b] = inverse
                seg[a + b : 2 * b] = inverse + len(slots)
                level_query = self._bank.rebind(query, slice(a, b))
                if level_query.offset.base is not query.offset:
                    # Not a view: a level of a mixed-axis plan, bound anew.
                    self._owned.append(level_query.offset)
                cell = CellLevel(
                    slice(a, b), self.c_src[a:b], self.c_dst[a:b],
                    graph.c_dst[a:b], seg[2 * a : 2 * b], slots,
                    level_query.ids, level_query,
                )
            self.levels.append((net, cell))

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays built so far."""
        return sum(arr.nbytes for arr in self._owned)

    # ------------------------------------------------------------------
    # Path tracing
    # ------------------------------------------------------------------
    @cached_property
    def _sink_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Contributions grouped by sink slot: those into slot ``s`` are
        ``order[start[s] : start[s + 1]]``, ascending."""
        n_slots = 2 * self.n_pins
        order = np.argsort(self.c_dst, kind="stable")
        start = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.c_dst, minlength=n_slots), out=start[1:])
        self._owned += [order, start]
        return order, start

    @cached_property
    def net_arc_of(self) -> np.ndarray:
        """The one fan-in net arc of each pin (-1: none)."""
        arc_of = np.full(self.n_pins, -1, dtype=np.int64)
        arc_of[self.net_sink] = np.arange(len(self.net_sink))
        self._owned.append(arc_of)
        return arc_of

    def fanin(self, pins: np.ndarray) -> np.ndarray:
        """Contributions whose sink is one of ``pins`` (either transition)."""
        order, start = self._sink_csr
        starts = start[2 * pins]
        return order[gather_csr(starts, start[2 * pins + 2] - starts)]

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    @cached_property
    def endpoints(self) -> EndpointTables:
        """The placement-independent side of the endpoint slacks."""
        setup_lut, clock_slew, output_delay = self._setup
        slots = _flat_slots(self._endpoint_pins).reshape(-1, 2)
        query = self._bank.bind(setup_lut.T)
        self._owned += [slots, query.offset]
        return EndpointTables(slots, setup_lut, query, output_delay, clock_slew)

    # ------------------------------------------------------------------
    # Reverse (required-time) sweep of the golden STA
    # ------------------------------------------------------------------
    def _net_runs(self, a: int, b: int) -> NetRuns:
        nets = self._net_of_sink[a:b]
        starts = np.flatnonzero(np.diff(nets, prepend=-1))
        runs = NetRuns(starts, self.net_src[a:b][starts], nets[starts])
        self._owned += runs
        return runs

    @cached_property
    def net_runs(self) -> NetRuns:
        """The net -> arc CSR of the whole net-arc table."""
        return self._net_runs(0, len(self.net_sink))

    @cached_property
    def reverse(self) -> List[Tuple[Optional[NetRuns], Optional[SourceSegments]]]:
        """Per level, aligned with :attr:`levels`: the level's net runs
        and its contributions' source segments."""
        out = []
        for level, (net, cell) in enumerate(self.levels, start=1):
            runs = sources = None
            if net is not None:
                runs = self._net_runs(*self._net_offsets[level : level + 2])
            if cell is not None:
                touched, seg = np.unique(cell.src, return_inverse=True)
                sources = SourceSegments(seg, touched)
                self._owned += sources
            out.append((runs, sources))
        return out


def _pin_starts(design: Design) -> np.ndarray:
    """First pin of every cell, after checking what makes it meaningful.

    Every table of :class:`TimingGraph` addresses a pin as its cell's
    first pin plus the pin's slot in the cell type's ``pins``.  That
    holds for pins flattened the way
    :func:`~repro.netlist.design.flatten_pins` (hence ``DesignBuilder``)
    does it, which is checked here once, by array comparison, instead of
    looking every pin up by name (the names are derived in that order).
    """
    pin2cell, _ = flatten_pins(design.cell_types, design.cell_type)
    if not np.array_equal(design.pin2cell, pin2cell):
        raise ValueError(
            f"design {design.name!r}: pins are not flattened cell by cell in "
            "library pin order (build designs with DesignBuilder)"
        )
    return np.searchsorted(pin2cell, np.arange(design.n_cells))


class _ArcTemplate:
    """The timing arcs of one cell type over local pin slots.

    Integer tables whose rows expand to one row per cell of the type:

    - ``contribs``: ``(from slot, to slot, t_in, t_out, delay LUT, slew
      LUT)`` per transition pair of every delay arc,
    - ``setups`` / ``holds``: ``(clock slot, data slot, rise LUT, fall
      LUT)`` per check arc.

    Building one registers the tables of ``arcs`` with ``lutbank``, in
    order.
    """

    def __init__(
        self, ctype: CellType, arcs: Sequence[TimingArc], lutbank: LutBank
    ) -> None:
        contribs: List[Tuple[int, ...]] = []
        checks = {ArcKind.SETUP: [], ArcKind.HOLD: []}
        for arc in arcs:
            src, dst = ctype.pin_slot(arc.from_pin), ctype.pin_slot(arc.to_pin)
            if src is None or dst is None:
                continue
            if arc.kind.is_delay_arc:
                for t_out in (RISE, FALL):
                    lut_d = lutbank.register(arc.delay_lut(t_out))
                    lut_s = lutbank.register(arc.transition_lut(t_out))
                    for t_in in arc.unateness.transition_sources(t_out):
                        contribs.append((src, dst, t_in, t_out, lut_d, lut_s))
            else:
                checks[arc.kind].append(
                    (
                        src,
                        dst,
                        lutbank.register(arc.constraint_lut(RISE)),
                        lutbank.register(arc.constraint_lut(FALL)),
                    )
                )
        self.contribs = np.array(contribs, dtype=np.int64).reshape(-1, 6)
        self.setups = np.array(checks[ArcKind.SETUP], dtype=np.int64).reshape(-1, 4)
        self.holds = np.array(checks[ArcKind.HOLD], dtype=np.int64).reshape(-1, 4)


class TimingGraph:
    """The static structure shared by the golden and differentiable timers."""

    def __init__(self, design: Design) -> None:
        self.design = design
        n_pins = design.n_pins
        cell_type = design.cell_type
        lutbank = LutBank()
        pin_start = _pin_starts(design)

        # ------------------------------------------------------------------
        # Net arcs: driver -> sink for every routed (non-clock) net.
        # ------------------------------------------------------------------
        degree = design.net_degrees
        timed = (design.net_driver >= 0) & ~design.net_is_clock & (degree >= 2)
        net_of_pin = np.repeat(np.arange(design.n_nets, dtype=np.int64), degree)
        driver_of_pin = design.net_driver[net_of_pin]
        is_arc = timed[net_of_pin] & (design.net2pin != driver_of_pin)
        net_sink_arr = design.net2pin[is_arc]
        net_src_arr = driver_of_pin[is_arc]
        net_of_sink_arr = net_of_pin[is_arc]

        # ------------------------------------------------------------------
        # Cell arcs expanded into per-transition contributions: one
        # template per cell type, over local pin slots, registered type by
        # type in the order the types first appear among the cells - the
        # order a cell-by-cell walk meets their tables, so LUT ids are
        # those of the walk.  A type without a cell registers nothing.
        # ------------------------------------------------------------------
        templates = [_ArcTemplate(t, (), lutbank) for t in design.cell_types]
        used, first = np.unique(cell_type, return_index=True)
        for t in used[np.argsort(first)].tolist():
            ctype = design.cell_types[t]
            templates[t] = _ArcTemplate(ctype, ctype.arcs, lutbank)

        def expand(table: str) -> Tuple[np.ndarray, np.ndarray]:
            """Cell-major rows of one template table: (first pin of the
            row's cell, the row's template columns)."""
            rows = [getattr(template, table) for template in templates]
            counts = np.array([len(r) for r in rows], dtype=np.int64)
            per_cell, index = rows_by_cell(counts, cell_type)
            return np.repeat(pin_start, per_cell), np.concatenate(rows)[index]

        base, cols = expand("contribs")
        c_src_arr, c_dst_arr = base + cols[:, 0], base + cols[:, 1]
        # Transitions are 0/1 and table ids index a bank of thousands.
        c_tin, c_tout = cols[:, 2:4].T.astype(np.int8)
        c_lut_delay, c_lut_slew = cols[:, 4:].T.astype(np.int32)

        # ------------------------------------------------------------------
        # Levelisation: longest-path levels over the propagation DAG.
        # ------------------------------------------------------------------
        # Deduplicate parallel edges (a non-unate arc contributes 4 tuples):
        # the distinct (src, dst) rows in lexicographic order, as one key.
        key = np.sort(
            np.concatenate([net_src_arr, c_src_arr]) * n_pins
            + np.concatenate([net_sink_arr, c_dst_arr])
        )
        key = key[np.diff(key, prepend=-1) > 0]
        edges_src, edges_dst = np.divmod(key, max(n_pins, 1))
        level = levelize(edges_src, edges_dst, n_pins, pin_names=design.pin_name)
        self.level = level
        self.n_levels = int(level.max()) + 1 if n_pins else 1

        # Start points: pins with no incoming propagation arc.
        indegree = np.bincount(edges_dst, minlength=n_pins)
        self.start_pins = np.nonzero(indegree == 0)[0]

        # ------------------------------------------------------------------
        # Sort arc tables by sink level.
        # ------------------------------------------------------------------
        order, offsets = _sort_by_level(level[net_sink_arr], self.n_levels)
        self.net_sink = net_sink_arr[order]
        self.net_src = net_src_arr[order]
        self.net_of_sink = net_of_sink_arr[order]
        self.net_arcs = LevelizedArcs(offsets)

        order, offsets = _sort_by_level(level[c_dst_arr], self.n_levels)
        self.c_src = c_src_arr[order]
        self.c_dst = c_dst_arr[order]
        self.c_tin = c_tin[order]
        self.c_tout = c_tout[order]
        self.c_lut_delay = c_lut_delay[order]
        self.c_lut_slew = c_lut_slew[order]
        self.cell_arcs = LevelizedArcs(offsets)

        # ------------------------------------------------------------------
        # Checks and endpoints.
        # ------------------------------------------------------------------
        base, cols = expand("setups")
        self.setup_d, self.setup_ck = base + cols[:, 1], base + cols[:, 0]
        self.setup_lut = cols[:, 2:].copy()
        base, cols = expand("holds")
        self.hold_d, self.hold_ck = base + cols[:, 1], base + cols[:, 0]
        self.hold_lut = cols[:, 2:].copy()

        type_names = np.array([t.name for t in design.cell_types], dtype=object)
        pin_type = type_names[cell_type][design.pin2cell]
        cell_name = np.array(design.cell_name, dtype=object)
        constraints = design.constraints

        self.po_pins = np.flatnonzero(pin_type == PORT_OUT_TYPE)
        po_ports = cell_name[design.pin2cell[self.po_pins]].tolist()
        self.po_output_delay = np.array(
            [constraints.output_delay(name) for name in po_ports]
        )
        self.po_extra_load = np.array(
            [constraints.output_load(name) for name in po_ports]
        )

        #: Endpoint pins = FF D pins with setup checks, then PO pins.
        self.endpoint_pins = np.concatenate([self.setup_d, self.po_pins])
        self.n_endpoints = len(self.endpoint_pins)

        # Extra pin capacitance (SDC set_load on output ports).
        self.extra_pin_cap = np.zeros(n_pins)
        self.extra_pin_cap[self.po_pins] = self.po_extra_load

        # Start-point boundary conditions, one row per start pin: the
        # input ports' SDC values.
        n_start = len(self.start_pins)
        self.start_at = np.zeros((n_start, 2))
        self.start_slew = np.full((n_start, 2), design.library.default_input_slew)
        pi_rows = np.flatnonzero(pin_type[self.start_pins] == PORT_IN_TYPE)
        pi_ports = cell_name[design.pin2cell[self.start_pins[pi_rows]]]
        data = pi_ports != constraints.clock_port
        pi_rows, pi_ports = pi_rows[data], pi_ports[data].tolist()
        self.start_at[pi_rows] = np.array(
            [constraints.input_delay(name) for name in pi_ports]
        ).reshape(-1, 1)
        self.start_slew[pi_rows] = np.array(
            [constraints.input_slew(name) for name in pi_ports]
        ).reshape(-1, 1)

        #: Constant clock slew seen by constraint LUTs (ideal clock).
        self.clock_slew = design.library.default_input_slew

        lutbank.finalize()
        self.lutbank = lutbank

    # ------------------------------------------------------------------
    @cached_property
    def plan(self) -> LevelPlan:
        """The sweep indices every timer of this graph shares (lazy)."""
        return LevelPlan(self)

    def __getstate__(self) -> dict:
        """Pickle (design bundles) without the derived plan."""
        state = self.__dict__.copy()
        state.pop("plan", None)
        return state

    def describe(self) -> str:
        """One-line structural summary (useful in logs and tests)."""
        return (
            f"TimingGraph(levels={self.n_levels}, "
            f"net_arcs={len(self.net_sink)}, cell_contribs={len(self.c_dst)}, "
            f"endpoints={self.n_endpoints}, luts={len(self.lutbank)})"
        )
