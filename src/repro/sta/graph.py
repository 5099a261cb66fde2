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

from ..netlist.design import Design, PORT_IN_TYPE, PORT_OUT_TYPE
from ..netlist.library import ArcKind, FALL, RISE
from ..route.tree import gather_csr
from .nldm import LoadSide, LutBank, LutQuery

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


class Sweep(NamedTuple):
    """What one forward sweep runs over: the whole plan or a restriction."""

    levels: Levels
    n_contribs: int
    query: LutQuery  # all ``n_contribs`` contributions' tables, (2, n)
    pin: np.ndarray  # (n,) sink pin of each contribution (its load)
    src: np.ndarray  # (n,) ``pin * 2 + transition`` of each source
    net_sink: np.ndarray  # sink pin of every net arc of the sweep


class EndpointTables(NamedTuple):
    """Static side of the endpoint slacks (setup checks, then ports)."""

    slots: np.ndarray  # (n_endpoints, 2) ``pin * 2 + transition``
    setup_query: LutQuery  # (2, n_setup) rise | fall constraint tables
    setup_load: LoadSide  # their clock-slew side under the ideal clock


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
    on its first use: :attr:`endpoints`, the by-sink CSR,
    :attr:`level_pins` and :attr:`net_arc_of` of the restricted
    (incremental) sweep and of path tracing, :attr:`reverse` and
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
        self.lut = np.stack([graph.c_lut_delay, graph.c_lut_slew]).astype(np.int32)
        self._bank = graph.lutbank
        query = self._bank.bind(self.lut)
        # The graph tables the lazy members derive from, by reference: no
        # copy, and no graph <-> plan cycle to keep a dropped plan alive.
        self.net_sink, self.net_src = graph.net_sink, graph.net_src
        self._net_of_sink, self._pin_level = graph.net_of_sink, graph.level
        self._net_offsets = graph.net_arcs.offsets
        self._setup = graph.setup_d, graph.setup_lut, graph.clock_slew
        self._endpoint_pins = graph.endpoint_pins
        #: Pins with a fan-in net arc.
        self.is_net_sink = np.zeros(self.n_pins, dtype=bool)
        self.is_net_sink[graph.net_sink] = True
        #: Boundary values at the start pins, compact.
        self.start_pins = graph.start_pins
        self.start_at = graph.start_at[graph.start_pins]
        self.start_slew = graph.start_slew[graph.start_pins]

        n_sink, n_src = _flat_slots(graph.net_sink), _flat_slots(graph.net_src)
        seg = np.empty(2 * self.n_contribs, dtype=np.int64)
        self._owned = [
            self.c_dst, self.c_src, self.lut, query.offset, n_sink, n_src, seg,
            self.start_at, self.start_slew, self.is_net_sink,
        ]
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
        #: The full forward sweep.
        self.sweep = Sweep(
            self.levels, self.n_contribs, query, graph.c_dst, self.c_src,
            graph.net_sink,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays built so far."""
        return sum(arr.nbytes for arr in self._owned)

    # ------------------------------------------------------------------
    # Restricted sweeps (incremental timer) and path tracing
    # ------------------------------------------------------------------
    @cached_property
    def _sink_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Contributions grouped by sink slot: those into slot ``s`` are
        ``order[start[s] : start[s + 1]]``, ascending."""
        n_slots = 2 * len(self._pin_level)
        order = np.argsort(self.c_dst, kind="stable")
        start = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.c_dst, minlength=n_slots), out=start[1:])
        self._owned += [order, start]
        return order, start

    @cached_property
    def level_pins(self) -> List[np.ndarray]:
        """Pins of each level, ``level_pins[l]`` ascending."""
        counts = np.bincount(self._pin_level)
        order = np.argsort(self._pin_level, kind="stable")
        self._owned.append(order)
        return np.split(order, np.cumsum(counts)[:-1])

    @cached_property
    def net_arc_of(self) -> np.ndarray:
        """The one fan-in net arc of each pin (-1: none)."""
        arc_of = np.full(len(self._pin_level), -1, dtype=np.int64)
        arc_of[self.net_sink] = np.arange(len(self.net_sink))
        self._owned.append(arc_of)
        return arc_of

    def fanin(self, pins: np.ndarray) -> np.ndarray:
        """Contributions whose sink is one of ``pins`` (either transition)."""
        order, start = self._sink_csr
        starts = start[2 * pins]
        return order[gather_csr(starts, start[2 * pins + 2] - starts)]

    def restrict(self, pins: np.ndarray) -> Sweep:
        """The forward sweep restricted to recomputing ``pins`` of one level.

        Shaped like the full plan's :attr:`sweep`: the one ``(net, cell)``
        pair holds every fan-in arc of ``pins`` (so each is recomputed
        from scratch), with ``sl``/``sl2`` slicing compact tapes of the
        gathered arcs.
        """
        arcs = self.net_arc_of[pins]
        arcs = arcs[arcs >= 0]
        sinks, srcs = self.net_sink[arcs], self.net_src[arcs]
        net = None
        if len(arcs):
            net = NetLevel(
                sinks, srcs, _flat_slots(sinks), _flat_slots(srcs),
                slice(0, 2 * len(arcs)),
            )
        idx = self.fanin(pins)
        query = self._bank.rebind(self.sweep.query, idx)
        src, dst = self.c_src[idx], self.c_dst[idx]
        cell = None
        if len(idx):
            slots, inverse = np.unique(dst, return_inverse=True)
            cell = CellLevel(
                slice(0, len(idx)), src, dst, dst >> 1,
                np.concatenate([inverse, inverse + len(slots)]),
                slots, query.ids, query,
            )
        return Sweep([(net, cell)], len(idx), query, dst >> 1, src, sinks)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    @cached_property
    def endpoints(self) -> EndpointTables:
        """The placement-independent side of the endpoint slacks."""
        setup_d, setup_lut, clock_slew = self._setup
        slots = _flat_slots(self._endpoint_pins).reshape(-1, 2)
        query = self._bank.bind(setup_lut.T)
        load = self._bank.locate_load(query, np.full(len(setup_d), clock_slew))
        self._owned += [slots, query.offset, *load]
        return EndpointTables(slots, query, load)

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


class TimingGraph:
    """The static structure shared by the golden and differentiable timers."""

    def __init__(self, design: Design) -> None:
        self.design = design
        n_pins = design.n_pins
        lutbank = LutBank()

        # ------------------------------------------------------------------
        # Net arcs: driver -> sink for every routed (non-clock) net.
        # ------------------------------------------------------------------
        net_sink: List[int] = []
        net_src: List[int] = []
        net_of_sink: List[int] = []
        self.timing_nets: List[int] = []
        for ni in range(design.n_nets):
            driver = design.net_driver[ni]
            if driver < 0 or design.net_is_clock[ni] or design.net_degree(ni) < 2:
                continue
            self.timing_nets.append(ni)
            for p in design.net_pins(ni):
                if p != driver:
                    net_sink.append(int(p))
                    net_src.append(int(driver))
                    net_of_sink.append(ni)
        net_sink_arr = np.array(net_sink, dtype=np.int64)
        net_src_arr = np.array(net_src, dtype=np.int64)
        net_of_sink_arr = np.array(net_of_sink, dtype=np.int64)

        # ------------------------------------------------------------------
        # Cell arcs expanded into per-transition contributions.
        # ------------------------------------------------------------------
        c_src: List[int] = []
        c_dst: List[int] = []
        c_tin: List[int] = []
        c_tout: List[int] = []
        c_lut_delay: List[int] = []
        c_lut_slew: List[int] = []
        setup_d: List[int] = []
        setup_ck: List[int] = []
        setup_lut: List[Tuple[int, int]] = []
        hold_d: List[int] = []
        hold_ck: List[int] = []
        hold_lut: List[Tuple[int, int]] = []

        pin_lookup = {}
        for p in range(n_pins):
            cell = design.pin2cell[p]
            pin_lookup[(int(cell), design.pin_name[p].rsplit("/", 1)[1])] = p

        for ci in range(design.n_cells):
            ctype = design.cell_type_of(ci)
            for arc in ctype.arcs:
                src = pin_lookup.get((ci, arc.from_pin))
                dst = pin_lookup.get((ci, arc.to_pin))
                if src is None or dst is None:
                    continue
                if arc.kind.is_delay_arc:
                    for t_out in (RISE, FALL):
                        lut_d = lutbank.register(arc.delay_lut(t_out))
                        lut_s = lutbank.register(arc.transition_lut(t_out))
                        for t_in in arc.unateness.transition_sources(t_out):
                            c_src.append(src)
                            c_dst.append(dst)
                            c_tin.append(t_in)
                            c_tout.append(t_out)
                            c_lut_delay.append(lut_d)
                            c_lut_slew.append(lut_s)
                elif arc.kind is ArcKind.SETUP:
                    setup_d.append(dst)
                    setup_ck.append(src)
                    setup_lut.append(
                        (
                            lutbank.register(arc.constraint_lut(RISE)),
                            lutbank.register(arc.constraint_lut(FALL)),
                        )
                    )
                elif arc.kind is ArcKind.HOLD:
                    hold_d.append(dst)
                    hold_ck.append(src)
                    hold_lut.append(
                        (
                            lutbank.register(arc.constraint_lut(RISE)),
                            lutbank.register(arc.constraint_lut(FALL)),
                        )
                    )

        c_src_arr = np.array(c_src, dtype=np.int64)
        c_dst_arr = np.array(c_dst, dtype=np.int64)

        # ------------------------------------------------------------------
        # Levelisation: longest-path levels over the propagation DAG.
        # ------------------------------------------------------------------
        edges_src = np.concatenate([net_src_arr, c_src_arr])
        edges_dst = np.concatenate([net_sink_arr, c_dst_arr])
        # Deduplicate parallel edges (a non-unate arc contributes 4 tuples).
        if len(edges_src):
            pairs = np.unique(np.stack([edges_src, edges_dst], axis=1), axis=0)
            edges_src, edges_dst = pairs[:, 0], pairs[:, 1]
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
        self.c_tin = np.array(c_tin, dtype=np.int64)[order]
        self.c_tout = np.array(c_tout, dtype=np.int64)[order]
        self.c_lut_delay = np.array(c_lut_delay, dtype=np.int64)[order]
        self.c_lut_slew = np.array(c_lut_slew, dtype=np.int64)[order]
        self.cell_arcs = LevelizedArcs(offsets)

        # ------------------------------------------------------------------
        # Checks and endpoints.
        # ------------------------------------------------------------------
        self.setup_d = np.array(setup_d, dtype=np.int64)
        self.setup_ck = np.array(setup_ck, dtype=np.int64)
        self.setup_lut = np.array(setup_lut, dtype=np.int64).reshape(-1, 2)
        self.hold_d = np.array(hold_d, dtype=np.int64)
        self.hold_ck = np.array(hold_ck, dtype=np.int64)
        self.hold_lut = np.array(hold_lut, dtype=np.int64).reshape(-1, 2)

        po_pins = []
        po_ports = []
        for p in range(n_pins):
            ci = design.pin2cell[p]
            if design.cell_types[design.cell_type[ci]].name == PORT_OUT_TYPE:
                po_pins.append(p)
                po_ports.append(design.cell_name[ci])
        self.po_pins = np.array(po_pins, dtype=np.int64)
        self.po_output_delay = np.array(
            [design.constraints.output_delay(name) for name in po_ports]
        )
        self.po_extra_load = np.array(
            [design.constraints.output_load(name) for name in po_ports]
        )

        #: Endpoint pins = FF D pins with setup checks, then PO pins.
        self.endpoint_pins = np.concatenate([self.setup_d, self.po_pins])
        self.n_endpoints = len(self.endpoint_pins)

        # Extra pin capacitance (SDC set_load on output ports).
        self.extra_pin_cap = np.zeros(n_pins)
        self.extra_pin_cap[self.po_pins] = self.po_extra_load

        # Start-point boundary conditions.
        self.start_at = np.zeros((n_pins, 2))
        self.start_slew = np.full(
            (n_pins, 2), design.library.default_input_slew
        )
        for p in self.start_pins:
            ci = design.pin2cell[p]
            if design.cell_types[design.cell_type[ci]].name == PORT_IN_TYPE:
                port = design.cell_name[ci]
                if port != design.constraints.clock_port:
                    self.start_at[p, :] = design.constraints.input_delay(port)
                    self.start_slew[p, :] = design.constraints.input_slew(port)

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
