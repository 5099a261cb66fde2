"""HEAD-of-PR-23 set-up constructors, kept as test references.

``ReferenceBuilder`` is the per-object ``DesignBuilder`` (one tuple per
cell, text pin references parsed back in ``build()``) and
``ReferenceGraph`` the per-pin / per-arc ``TimingGraph.__init__``, both
moved here verbatim when the library versions became array programs;
since then only the stored forms follow the library's (no pin-name list,
int8 transition and int32 table-id columns, start values one row per
start pin), and ``reference_pin_names`` keeps the per-pin names the old
builder stored.  ``rebuild_design`` replays a design through either
builder.
``tests/test_setup_equivalence.py`` holds the array versions to them,
field for field.  The bulk entry points of the new builder
(``add_cells`` / ``add_nets``) are adapters here: they format the names
the old code parsed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.design import (
    PORT_IN_TYPE,
    PORT_OUT_TYPE,
    Constraints,
    Design,
    DesignBuilder,
    _make_port_types,
)
from repro.netlist.library import (
    FALL,
    RISE,
    ArcKind,
    CellType,
    Library,
    PinDirection,
)
from repro.sta.graph import LevelizedArcs, _sort_by_level, levelize
from repro.sta.nldm import LutBank


class ReferenceBuilder:
    """The per-object builder: same calls as ``DesignBuilder``."""

    def __init__(
        self,
        name: str,
        library: Library,
        die: Tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0),
        row_height: Optional[float] = None,
        constraints: Optional[Constraints] = None,
    ) -> None:
        self.name = name
        self.library = library
        self.die = die
        self.row_height = row_height if row_height is not None else 2.0
        self.constraints = constraints if constraints is not None else Constraints()
        port_in, port_out = _make_port_types()
        self._types: List[CellType] = [port_in, port_out]
        self._type_index: Dict[str, int] = {PORT_IN_TYPE: 0, PORT_OUT_TYPE: 1}
        self._cells: List[Tuple[str, int, float, float, bool]] = []
        self._cell_index: Dict[str, int] = {}
        self._nets: List[Tuple[str, List[str]]] = []
        self._net_index: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _type_id(self, type_name: str) -> int:
        if type_name not in self._type_index:
            self._type_index[type_name] = len(self._types)
            self._types.append(self.library[type_name])
        return self._type_index[type_name]

    def _add(self, name: str, type_id: int, x, y, fixed: bool) -> None:
        if name in self._cell_index:
            raise ValueError(f"duplicate cell {name!r}")
        self._cell_index[name] = len(self._cells)
        self._cells.append((name, type_id, x, y, fixed))

    def add_cell(
        self,
        name: str,
        type_name: str,
        x: Optional[float] = None,
        y: Optional[float] = None,
        fixed: bool = False,
    ) -> None:
        """Add a standard-cell instance (unplaced unless x/y given)."""
        self._add(name, self._type_id(type_name), x, y, fixed)

    def add_input(self, name: str, x: Optional[float] = None, y: Optional[float] = None) -> None:
        """Add a fixed top-level input port (a zero-area driver cell)."""
        self._add(name, 0, x, y, True)

    def add_output(self, name: str, x: Optional[float] = None, y: Optional[float] = None) -> None:
        """Add a fixed top-level output port (a zero-area sink cell)."""
        self._add(name, 1, x, y, True)

    def add_net(self, name: str, pins: Sequence[str]) -> None:
        """Connect pins; each pin is ``"cell/pin"`` or a bare port name."""
        if name in self._net_index:
            raise ValueError(f"duplicate net {name!r}")
        self._net_index[name] = len(self._nets)
        self._nets.append((name, list(pins)))

    # ------------------------------------------------------------------
    def _resolve_pin_ref(self, ref: str) -> Tuple[int, str]:
        """Turn ``"cell/pin"`` or a port name into (cell index, pin name)."""
        if "/" in ref:
            cell_name, pin_name = ref.rsplit("/", 1)
        else:
            cell_name = ref
            if cell_name not in self._cell_index:
                raise KeyError(f"unknown port {ref!r}")
            type_id = self._cells[self._cell_index[cell_name]][1]
            pin_name = "O" if type_id == 0 else "I"
        if cell_name not in self._cell_index:
            raise KeyError(f"unknown cell {cell_name!r} in pin ref {ref!r}")
        return self._cell_index[cell_name], pin_name

    def build(self) -> Design:
        """Freeze the builder into an immutable :class:`Design`."""
        rng = np.random.default_rng(0)
        xl, yl, xh, yh = self.die

        n_cells = len(self._cells)
        cell_name = [c[0] for c in self._cells]
        cell_type = np.array([c[1] for c in self._cells], dtype=np.int64)
        cell_x = np.empty(n_cells)
        cell_y = np.empty(n_cells)
        cell_fixed = np.array([c[4] for c in self._cells])
        for i, (_, _, x, y, _) in enumerate(self._cells):
            cell_x[i] = 0.5 * (xl + xh) if x is None else x
            cell_y[i] = 0.5 * (yl + yh) if y is None else y
        # Unplaced fixed ports are scattered on the boundary deterministically.
        for i, (_, tid, x, y, _) in enumerate(self._cells):
            if tid in (0, 1) and x is None and y is None:
                t = rng.uniform(0.0, 4.0)
                side = int(t)
                frac = t - side
                if side == 0:
                    cell_x[i], cell_y[i] = xl + frac * (xh - xl), yl
                elif side == 1:
                    cell_x[i], cell_y[i] = xh, yl + frac * (yh - yl)
                elif side == 2:
                    cell_x[i], cell_y[i] = xl + frac * (xh - xl), yh
                else:
                    cell_x[i], cell_y[i] = xl, yl + frac * (yh - yl)

        # Flatten pins cell by cell.
        pin_name: List[str] = []
        pin2cell: List[int] = []
        pin_offset_x: List[float] = []
        pin_offset_y: List[float] = []
        pin_dir: List[int] = []
        pin_cap: List[float] = []
        pin_is_clock: List[bool] = []
        pin_lookup: Dict[Tuple[int, str], int] = {}
        for ci in range(n_cells):
            ctype = self._types[cell_type[ci]]
            for pi, spec in enumerate(ctype.pins):
                pin_lookup[(ci, spec.name)] = len(pin_name)
                pin_name.append(f"{cell_name[ci]}/{spec.name}")
                pin2cell.append(ci)
                # Spread pin offsets across the cell so trees are nondegenerate.
                n_cell_pins = len(ctype.pins)
                frac = (pi + 1) / (n_cell_pins + 1)
                pin_offset_x.append((frac - 0.5) * ctype.width)
                pin_offset_y.append(0.0)
                pin_dir.append(1 if spec.direction is PinDirection.OUTPUT else 0)
                pin_cap.append(spec.capacitance)
                pin_is_clock.append(spec.is_clock)

        n_pins = len(pin_name)
        pin2net = np.full(n_pins, -1, dtype=np.int64)

        net_name = [n[0] for n in self._nets]
        net2pin_start = np.zeros(len(self._nets) + 1, dtype=np.int64)
        net2pin: List[int] = []
        net_driver = np.full(len(self._nets), -1, dtype=np.int64)
        net_is_clock = np.zeros(len(self._nets), dtype=bool)
        clock_port = self.constraints.clock_port
        for ni, (nname, refs) in enumerate(self._nets):
            for ref in refs:
                ci, pname = self._resolve_pin_ref(ref)
                key = (ci, pname)
                if key not in pin_lookup:
                    raise KeyError(f"cell {cell_name[ci]!r} has no pin {pname!r}")
                p = pin_lookup[key]
                if pin2net[p] != -1:
                    raise ValueError(f"pin {pin_name[p]!r} connected to two nets")
                pin2net[p] = ni
                net2pin.append(p)
                if pin_dir[p] == 1:
                    if net_driver[ni] != -1:
                        raise ValueError(f"net {nname!r} has multiple drivers")
                    net_driver[ni] = p
                    if cell_name[ci] == clock_port:
                        net_is_clock[ni] = True
            net2pin_start[ni + 1] = len(net2pin)

        return Design(
            name=self.name,
            library=self.library,
            die=self.die,
            row_height=self.row_height,
            cell_types=self._types,
            cell_name=cell_name,
            cell_type=cell_type,
            cell_x=cell_x,
            cell_y=cell_y,
            cell_fixed=cell_fixed,
            pin2cell=np.array(pin2cell, dtype=np.int64),
            pin_offset_x=np.array(pin_offset_x),
            pin_offset_y=np.array(pin_offset_y),
            pin_dir=np.array(pin_dir, dtype=np.int8),
            pin_cap=np.array(pin_cap),
            pin_is_clock=np.array(pin_is_clock, dtype=bool),
            pin2net=pin2net,
            net_name=net_name,
            net2pin_start=net2pin_start,
            net2pin=np.array(net2pin, dtype=np.int64),
            net_driver=net_driver,
            net_is_clock=net_is_clock,
            constraints=self.constraints,
        )

    # -- adapters for the index-form entry points ----------------------
    def add_cells(self, names, type_names, type_of) -> None:
        for name, t in zip(names, np.asarray(type_of).tolist()):
            self.add_cell(name, type_names[t])

    def add_nets(self, names, start, cell, slot) -> None:
        refs = []
        for c, s in zip(np.asarray(cell).tolist(), np.asarray(slot).tolist()):
            cname, type_id = self._cells[c][0], self._cells[c][1]
            refs.append(
                cname if type_id in (0, 1)
                else f"{cname}/{self._types[type_id].pins[s].name}"
            )
        bounds = np.asarray(start).tolist()
        for j, name in enumerate(names):
            self.add_net(name, refs[bounds[j] : bounds[j + 1]])


class ReferenceGraph:
    """The tables of ``TimingGraph``, built one pin and one arc at a time."""

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
        for ni in range(design.n_nets):
            driver = design.net_driver[ni]
            if driver < 0 or design.net_is_clock[ni] or design.net_degree(ni) < 2:
                continue
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
        for p, name in enumerate(reference_pin_names(design)):
            cell = design.pin2cell[p]
            pin_lookup[(int(cell), name.rsplit("/", 1)[1])] = p

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
        self.c_tin = np.array(c_tin, dtype=np.int8)[order]
        self.c_tout = np.array(c_tout, dtype=np.int8)[order]
        self.c_lut_delay = np.array(c_lut_delay, dtype=np.int32)[order]
        self.c_lut_slew = np.array(c_lut_slew, dtype=np.int32)[order]
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

        # Start-point boundary conditions, one row per start pin.
        self.start_at = np.zeros((len(self.start_pins), 2))
        self.start_slew = np.full(
            (len(self.start_pins), 2), design.library.default_input_slew
        )
        for row, p in enumerate(self.start_pins):
            ci = design.pin2cell[p]
            if design.cell_types[design.cell_type[ci]].name == PORT_IN_TYPE:
                port = design.cell_name[ci]
                if port != design.constraints.clock_port:
                    self.start_at[row, :] = design.constraints.input_delay(port)
                    self.start_slew[row, :] = design.constraints.input_slew(port)

        #: Constant clock slew seen by constraint LUTs (ideal clock).
        self.clock_slew = design.library.default_input_slew

        lutbank.finalize()
        self.lutbank = lutbank


def reference_pin_names(design: Design) -> List[str]:
    """Pin names as the per-object builder stored them: cell by cell,
    each cell's pins in library order."""
    names: List[str] = []
    for ci in range(design.n_cells):
        for spec in design.cell_types[design.cell_type[ci]].pins:
            names.append(f"{design.cell_name[ci]}/{spec.name}")
    return names


def reference_cell_fields(design: Design) -> Dict[str, np.ndarray]:
    """The per-cell comprehensions ``Design.__init__`` used to run."""
    types, of = design.cell_types, design.cell_type
    return {
        "cell_w": np.array([types[t].width for t in of], float),
        "cell_h": np.array([types[t].height for t in of], float),
        "cell_is_port": np.array(
            [types[t].name in (PORT_IN_TYPE, PORT_OUT_TYPE) for t in of]
        ),
    }


def design_digest(design: Design) -> str:
    """SHA-256 over every field of a design that a generator decides."""
    digest = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, np.ndarray):
            digest.update(str(value.dtype).encode() + str(value.shape).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())

    for field in (
        "name", "die", "row_height", "cell_name", "cell_type", "cell_x",
        "cell_y", "cell_fixed", "pin_name", "pin2cell", "pin_offset_x",
        "pin_offset_y", "pin_dir", "pin_cap", "pin_is_clock", "pin2net",
        "net_name", "net2pin_start", "net2pin", "net_driver", "net_is_clock",
    ):
        value = getattr(design, field)
        feed(list(value) if field == "pin_name" else value)
    feed([t.name for t in design.cell_types])
    feed(sorted(vars(design.constraints).items()))
    return digest.hexdigest()


def rebuild_design(design: Design, builder_cls=DesignBuilder) -> Design:
    """The same cells (and positions) and nets, added through ``builder_cls``."""
    builder = builder_cls(
        design.name, design.library, die=design.die,
        row_height=design.row_height, constraints=design.constraints,
    )
    ports = {PORT_IN_TYPE: builder.add_input, PORT_OUT_TYPE: builder.add_output}
    for ci, name in enumerate(design.cell_name):
        type_name = design.cell_types[design.cell_type[ci]].name
        x, y = float(design.cell_x[ci]), float(design.cell_y[ci])
        if type_name in ports:
            ports[type_name](name, x=x, y=y)
        else:
            fixed = bool(design.cell_fixed[ci])
            builder.add_cell(name, type_name, x=x, y=y, fixed=fixed)
    for ni, net in enumerate(design.net_name):
        refs = []
        for p in design.net_pins(ni):
            cell = int(design.pin2cell[p])
            is_port = design.cell_types[design.cell_type[cell]].name in ports
            refs.append(design.cell_name[cell] if is_port else design.pin_name[p])
        builder.add_net(net, refs)
    return builder.build()
