"""Flattened placement/timing design model.

A :class:`Design` is the frozen, array-of-structs view of a netlist that all
kernels (placement, routing, both timers) operate on: cells, pins and nets
are plain NumPy arrays with CSR-style connectivity.  Designs are constructed
through :class:`DesignBuilder`, which offers a small, explicit API
(``add_cell`` / ``add_input`` / ``add_output`` / ``add_net``).

Top-level ports are modelled as zero-area fixed cells with a single pin:
an input port drives the chip through its output pin ``O`` and an output
port is a sink through its input pin ``I``.  This keeps every kernel free
of special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .library import (
    CellType,
    Library,
    PinDirection,
    PinSpec,
)

__all__ = ["Constraints", "Design", "DesignBuilder", "PORT_IN_TYPE", "PORT_OUT_TYPE"]

#: Reserved type names for the synthetic port cells.
PORT_IN_TYPE = "<PORT_IN>"
PORT_OUT_TYPE = "<PORT_OUT>"


def _make_port_types() -> Tuple[CellType, CellType]:
    pin_in = CellType(
        PORT_IN_TYPE,
        0.0,
        0.0,
        [PinSpec("O", PinDirection.OUTPUT)],
    )
    pin_out = CellType(
        PORT_OUT_TYPE,
        0.0,
        0.0,
        [PinSpec("I", PinDirection.INPUT, capacitance=2.0)],
    )
    return pin_in, pin_out


@dataclass
class Constraints:
    """SDC-style timing constraints for a single-clock design.

    The clock is ideal (zero insertion delay and skew), matching the
    evaluation setting of the paper.  All times in picoseconds, loads in
    femtofarads.
    """

    clock_period: float = 1000.0
    clock_port: str = "clk"
    input_delays: Dict[str, float] = field(default_factory=dict)
    output_delays: Dict[str, float] = field(default_factory=dict)
    input_slews: Dict[str, float] = field(default_factory=dict)
    output_loads: Dict[str, float] = field(default_factory=dict)
    default_input_delay: float = 0.0
    default_output_delay: float = 0.0
    default_input_slew: float = 20.0
    default_output_load: float = 4.0

    def input_delay(self, port: str) -> float:
        return self.input_delays.get(port, self.default_input_delay)

    def output_delay(self, port: str) -> float:
        return self.output_delays.get(port, self.default_output_delay)

    def input_slew(self, port: str) -> float:
        return self.input_slews.get(port, self.default_input_slew)

    def output_load(self, port: str) -> float:
        return self.output_loads.get(port, self.default_output_load)


class Design:
    """Frozen array view of a netlist placed on a die.

    Do not instantiate directly; use :class:`DesignBuilder`.
    All coordinates refer to cell *centers*.
    """

    def __init__(
        self,
        name: str,
        library: Library,
        die: Tuple[float, float, float, float],
        row_height: float,
        cell_types: List[CellType],
        cell_name: List[str],
        cell_type: np.ndarray,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        cell_fixed: np.ndarray,
        pin_name: List[str],
        pin2cell: np.ndarray,
        pin_offset_x: np.ndarray,
        pin_offset_y: np.ndarray,
        pin_dir: np.ndarray,
        pin_cap: np.ndarray,
        pin_is_clock: np.ndarray,
        pin2net: np.ndarray,
        net_name: List[str],
        net2pin_start: np.ndarray,
        net2pin: np.ndarray,
        net_driver: np.ndarray,
        net_is_clock: np.ndarray,
        constraints: Constraints,
    ) -> None:
        self.name = name
        self.library = library
        self.die = die
        self.row_height = row_height
        self.cell_types = cell_types
        self.cell_name = cell_name
        self.cell_type = cell_type
        self.cell_x = cell_x
        self.cell_y = cell_y
        self.cell_fixed = cell_fixed
        self.pin_name = pin_name
        self.pin2cell = pin2cell
        self.pin_offset_x = pin_offset_x
        self.pin_offset_y = pin_offset_y
        self.pin_dir = pin_dir  # 0 = input (sink), 1 = output (driver)
        self.pin_cap = pin_cap
        self.pin_is_clock = pin_is_clock
        self.pin2net = pin2net
        self.net_name = net_name
        self.net2pin_start = net2pin_start
        self.net2pin = net2pin
        self.net_driver = net_driver
        self.net_is_clock = net_is_clock
        self.constraints = constraints

        self.cell_w = np.array([cell_types[t].width for t in cell_type], float)
        self.cell_h = np.array([cell_types[t].height for t in cell_type], float)
        self.cell_is_port = np.array(
            [cell_types[t].name in (PORT_IN_TYPE, PORT_OUT_TYPE) for t in cell_type]
        )
        self._cell_index = {n: i for i, n in enumerate(cell_name)}
        self._net_index = {n: i for i, n in enumerate(net_name)}

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the netlist only: per-design derived plans (see
        :func:`repro.route.plan.route_plan`) are rebuilt on demand."""
        state = self.__dict__.copy()
        state.pop("_route_plan", None)
        return state

    # ------------------------------------------------------------------
    # Sizes and lookups
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.cell_name)

    @property
    def n_pins(self) -> int:
        return len(self.pin2cell)

    @property
    def n_nets(self) -> int:
        return len(self.net_name)

    @property
    def n_movable(self) -> int:
        return int(np.count_nonzero(~self.cell_fixed))

    def cell_index(self, name: str) -> int:
        return self._cell_index[name]

    def net_index(self, name: str) -> int:
        return self._net_index[name]

    def net_pins(self, net: int) -> np.ndarray:
        """Pin indices of a net (driver first is *not* guaranteed)."""
        return self.net2pin[self.net2pin_start[net] : self.net2pin_start[net + 1]]

    def net_degree(self, net: int) -> int:
        return int(self.net2pin_start[net + 1] - self.net2pin_start[net])

    @property
    def net_degrees(self) -> np.ndarray:
        return np.diff(self.net2pin_start)

    def cell_type_of(self, cell: int) -> CellType:
        return self.cell_types[self.cell_type[cell]]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def pin_positions(
        self, cell_x: Optional[np.ndarray] = None, cell_y: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pin coordinates for the given (default: stored) cell centers."""
        x = self.cell_x if cell_x is None else cell_x
        y = self.cell_y if cell_y is None else cell_y
        return (
            x[self.pin2cell] + self.pin_offset_x,
            y[self.pin2cell] + self.pin_offset_y,
        )

    @property
    def movable_area(self) -> float:
        m = ~self.cell_fixed
        return float(np.sum(self.cell_w[m] * self.cell_h[m]))

    @property
    def die_area(self) -> float:
        xl, yl, xh, yh = self.die
        return (xh - xl) * (yh - yl)

    def stats(self) -> Dict[str, int]:
        """Benchmark statistics in the style of Table 2."""
        return {
            "cells": self.n_cells,
            "nets": self.n_nets,
            "pins": self.n_pins,
        }

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, cells={self.n_cells}, nets={self.n_nets}, "
            f"pins={self.n_pins})"
        )


class DesignBuilder:
    """Incrementally assemble a :class:`Design`.

    Example::

        b = DesignBuilder("adder", library, die=(0, 0, 100, 100))
        b.add_input("a", x=0.0, y=10.0)
        b.add_input("clk", x=0.0, y=0.0)
        b.add_output("y", x=100.0, y=10.0)
        b.add_cell("u1", "INV_X1")
        b.add_net("n_a", ["a", "u1/A"])
        b.add_net("n_y", ["u1/Y", "y"])
        design = b.build()
    """

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
            pin_name=pin_name,
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
