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

from collections import abc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .library import (
    CellType,
    Library,
    PinDirection,
    PinSpec,
)

__all__ = [
    "Constraints",
    "Design",
    "DesignBuilder",
    "PORT_IN_TYPE",
    "PORT_OUT_TYPE",
    "PinNames",
    "flatten_pins",
    "rows_by_cell",
]

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

        self.cell_w = np.array([t.width for t in cell_types], float)[cell_type]
        self.cell_h = np.array([t.height for t in cell_types], float)[cell_type]
        self.cell_is_port = np.array(
            [t.name in (PORT_IN_TYPE, PORT_OUT_TYPE) for t in cell_types], bool
        )[cell_type]

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the netlist only: the name indexes and per-design derived
        plans (see :func:`repro.route.plan.route_plan`) are rebuilt on
        demand."""
        state = self.__dict__.copy()
        for derived in ("_cell_index", "_net_index", "_route_plan"):
            state.pop(derived, None)
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

    @property
    def pin_name(self) -> "PinNames":
        """``cell/pin`` of every pin, formatted per access (not stored)."""
        return PinNames(self)

    def cell_index(self, name: str) -> int:
        """Index of the cell ``name`` (``KeyError`` if there is none)."""
        if "_cell_index" not in self.__dict__:
            self._cell_index = dict(zip(self.cell_name, range(self.n_cells)))
        return self._cell_index[name]

    def net_index(self, name: str) -> int:
        """Index of the net ``name`` (``KeyError`` if there is none)."""
        if "_net_index" not in self.__dict__:
            self._net_index = dict(zip(self.net_name, range(self.n_nets)))
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


def rows_by_cell(
    rows_per_type: np.ndarray, cell_type: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A type-major row table expanded cell-major.

    Type ``t`` owns ``rows_per_type[t]`` consecutive rows of some table,
    after the rows of the types before it; every cell gets a copy of its
    type's rows, cells in order.  Returns the number of rows per cell and,
    for every expanded row, its index in the table.
    """
    per_cell = rows_per_type[cell_type]
    first_row = (np.cumsum(rows_per_type) - rows_per_type)[cell_type]
    ends = np.cumsum(per_cell)
    # Row r of a cell whose rows start at s is table row first_row + (r - s).
    shift = np.repeat(first_row - (ends - per_cell), per_cell)
    return per_cell, np.arange(len(shift), dtype=np.int64) + shift


def flatten_pins(
    cell_types: Sequence[CellType], cell_type: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The pins of a design: cell by cell, each cell's in library order.

    Returns ``pin2cell`` and every pin's index in the type-major list of
    all pin specs (``[spec for t in cell_types for spec in t.pins]``).
    This order is what lets a pin be addressed as its cell's first pin
    plus a slot in the type's ``pins`` - and named from the two
    (:class:`PinNames`); :class:`DesignBuilder` produces it and
    :class:`~repro.sta.graph.TimingGraph` checks for it.
    """
    n_type_pins = np.array([len(t.pins) for t in cell_types], dtype=np.int64)
    per_cell, spec_of_pin = rows_by_cell(n_type_pins, cell_type)
    pin2cell = np.repeat(np.arange(len(cell_type), dtype=np.int64), per_cell)
    return pin2cell, spec_of_pin


class PinNames(abc.Sequence):
    """The ``cell/pin`` names of a design's pins, derived per access.

    Pins are flattened in :func:`flatten_pins` order, so pin ``p`` is slot
    ``p - first`` of its cell's type, ``first`` being the cell's first
    pin: a name is formatted from the cell name and the type's pin spec
    when it is read, and :meth:`index` parses one back through
    :meth:`Design.cell_index`.  No per-pin string is ever stored.
    """

    __slots__ = ("_design",)

    def __init__(self, design: "Design") -> None:
        self._design = design

    def __len__(self) -> int:
        return self._design.n_pins

    def __getitem__(self, pin):
        if isinstance(pin, slice):
            return [self[p] for p in range(len(self))[pin]]
        pin = range(len(self))[pin]  # bounds-checked; negative counts from the end
        d = self._design
        cell = int(d.pin2cell[pin])
        slot = pin - int(np.searchsorted(d.pin2cell, cell))
        return f"{d.cell_name[cell]}/{d.cell_type_of(cell).pins[slot].name}"

    def __iter__(self) -> Iterator[str]:
        d = self._design
        for name, t in zip(d.cell_name, d.cell_type.tolist()):
            for spec in d.cell_types[t].pins:
                yield f"{name}/{spec.name}"

    def index(self, name: str) -> int:
        """The pin named ``name`` (``ValueError`` if there is none)."""
        d = self._design
        cell_name, _, pin = name.rpartition("/")
        try:
            cell = d.cell_index(cell_name)
        except KeyError:
            slot = None
        else:
            slot = d.cell_type_of(cell).pin_slot(pin)
        if slot is None:
            raise ValueError(f"{name!r} is not a pin of design {d.name!r}")
        return int(np.searchsorted(d.pin2cell, cell)) + slot


def _claim(taken: Dict[str, int], names: Sequence[str], what: str) -> None:
    """Index ``names`` after the ones ``taken`` holds; all must be new."""
    index = dict(zip(names, range(len(taken), len(taken) + len(names))))
    if len(index) != len(names) or not taken.keys().isdisjoint(index):
        seen = set(taken)
        for name in names:
            if name in seen:
                raise ValueError(f"duplicate {what} {name!r}")
            seen.add(name)
    taken.update(index)


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

    Cells are held one list per field and nets as one CSR over
    ``(cell index, pin slot)`` references - a cell's index is its position
    in the order cells were added, a pin's slot its position in its
    type's ``pins`` - so :meth:`build` is an array program over per-type
    pin templates (DESIGN.md "Graph-rate construction").  The text
    readers reach that form through :meth:`add_net`, a producer that
    already holds indices through :meth:`add_cells` / :meth:`add_nets`.
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
        self._cell_name: List[str] = []
        self._cell_type: List[int] = []
        self._cell_x: List[Optional[float]] = []  # None: unplaced
        self._cell_y: List[Optional[float]] = []
        self._cell_fixed: List[bool] = []
        self._cell_index: Dict[str, int] = {}
        self._net_name: List[str] = []
        self._net_index: Dict[str, int] = {}
        self._net_start: List[int] = [0]
        self._ref_cell: List[int] = []
        self._ref_slot: List[int] = []
        #: (position, text) of the references :meth:`add_net` could not
        #: resolve; :meth:`build` tries them again and reports the failure.
        self._unresolved: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _type_id(self, type_name: str) -> int:
        if type_name not in self._type_index:
            self._type_index[type_name] = len(self._types)
            self._types.append(self.library[type_name])
        return self._type_index[type_name]

    def _add(self, name: str, type_id: int, x, y, fixed: bool) -> None:
        if name in self._cell_index:
            raise ValueError(f"duplicate cell {name!r}")
        self._cell_index[name] = len(self._cell_name)
        self._cell_name.append(name)
        self._cell_type.append(type_id)
        self._cell_x.append(x)
        self._cell_y.append(y)
        self._cell_fixed.append(fixed)

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
        self._net_index[name] = len(self._net_name)
        self._net_name.append(name)
        for ref in pins:
            try:
                cell, slot = self._resolve_pin_ref(ref)
            except KeyError:
                # Its cell may be added later: settled in build().
                self._unresolved.append((len(self._ref_cell), ref))
                cell = slot = -1
            self._ref_cell.append(cell)
            self._ref_slot.append(slot)
        self._net_start.append(len(self._ref_cell))

    def add_cells(
        self, names: Sequence[str], type_names: Sequence[str], type_of: np.ndarray
    ) -> None:
        """Add unplaced movable instances in bulk.

        Cell ``i`` is named ``names[i]`` and is a ``type_names[type_of[i]]``.
        Equivalent to one :meth:`add_cell` per cell, in order.
        """
        type_of = np.asarray(type_of, dtype=np.int64)
        if len(type_of) != len(names):
            raise ValueError(f"{len(names)} cell names for {len(type_of)} types")
        _claim(self._cell_index, names, "cell")
        # Types register in the order their first cell appears.
        used, first = np.unique(type_of, return_index=True)
        type_id = np.zeros(len(type_names), dtype=np.int64)
        for t in used[np.argsort(first)].tolist():
            type_id[t] = self._type_id(type_names[t])
        self._cell_name.extend(names)
        self._cell_type.extend(type_id[type_of].tolist())
        self._cell_x.extend([None] * len(names))
        self._cell_y.extend([None] * len(names))
        self._cell_fixed.extend([False] * len(names))

    def add_nets(
        self,
        names: Sequence[str],
        start: np.ndarray,
        cell: np.ndarray,
        slot: np.ndarray,
    ) -> None:
        """Connect pins in bulk, by index instead of by name.

        Net ``j`` joins the references ``start[j] : start[j + 1]``;
        reference ``k`` is pin ``slot[k]`` (position in its type's
        ``pins``) of cell ``cell[k]`` (position in the order cells were
        added; the cells must exist already).
        """
        start = np.asarray(start, dtype=np.int64)
        cell = np.asarray(cell, dtype=np.int64)
        slot = np.asarray(slot, dtype=np.int64)
        if (
            len(start) != len(names) + 1
            or len(cell) != len(slot)
            or start[0] != 0
            or start[-1] != len(cell)
            or np.any(np.diff(start) < 0)
        ):
            raise ValueError("net CSR does not match its names and references")
        if np.any(cell < 0) or np.any(cell >= len(self._cell_name)):
            raise IndexError("net reference to a cell that was not added")
        n_type_pins = np.array([len(t.pins) for t in self._types])
        cell_type = np.array(self._cell_type, dtype=np.int64)
        if np.any(slot < 0) or np.any(slot >= n_type_pins[cell_type[cell]]):
            raise IndexError("net reference to a pin slot its cell does not have")
        _claim(self._net_index, names, "net")
        self._net_name.extend(names)
        self._net_start.extend((start[1:] + len(self._ref_cell)).tolist())
        self._ref_cell.extend(cell.tolist())
        self._ref_slot.extend(slot.tolist())

    # ------------------------------------------------------------------
    def _resolve_pin_ref(self, ref: str) -> Tuple[int, int]:
        """Turn ``"cell/pin"`` or a port name into (cell index, pin slot)."""
        if "/" in ref:
            cell_name, pin_name = ref.rsplit("/", 1)
        else:
            cell_name = ref
            if cell_name not in self._cell_index:
                raise KeyError(f"unknown port {ref!r}")
            type_id = self._cell_type[self._cell_index[cell_name]]
            pin_name = "O" if type_id == 0 else "I"
        if cell_name not in self._cell_index:
            raise KeyError(f"unknown cell {cell_name!r} in pin ref {ref!r}")
        cell = self._cell_index[cell_name]
        slot = self._types[self._cell_type[cell]].pin_slot(pin_name)
        if slot is None:
            raise KeyError(f"cell {cell_name!r} has no pin {pin_name!r}")
        return cell, slot

    def build(self) -> Design:
        """Freeze the builder into an immutable :class:`Design`."""
        rng = np.random.default_rng(0)
        xl, yl, xh, yh = self.die

        n_cells = len(self._cell_name)
        cell_name = list(self._cell_name)
        cell_type = np.array(self._cell_type, dtype=np.int64)
        cell_fixed = np.array(self._cell_fixed, dtype=bool)
        given_x = np.array(self._cell_x, dtype=float)  # None -> nan
        given_y = np.array(self._cell_y, dtype=float)
        no_x, no_y = np.isnan(given_x), np.isnan(given_y)
        cell_x = np.where(no_x, 0.5 * (xl + xh), given_x)
        cell_y = np.where(no_y, 0.5 * (yl + yh), given_y)
        # Unplaced fixed ports are scattered on the boundary deterministically.
        loose = np.flatnonzero((cell_type <= 1) & no_x & no_y)
        t = rng.uniform(0.0, 4.0, size=len(loose))
        side = t.astype(np.int64)
        frac = t - side
        along_x = xl + frac * (xh - xl)
        along_y = yl + frac * (yh - yl)
        cell_x[loose] = np.select([side == 1, side == 3], [xh, xl], along_x)
        cell_y[loose] = np.select([side == 0, side == 2], [yl, yh], along_y)

        # One pin template per type, expanded cell by cell.  Pin offsets
        # are spread across the cell so trees are nondegenerate.
        specs = [spec for ctype in self._types for spec in ctype.pins]
        tpl_offset_x = np.array(
            [
                ((pi + 1) / (len(ctype.pins) + 1) - 0.5) * ctype.width
                for ctype in self._types
                for pi in range(len(ctype.pins))
            ]
        )
        tpl_dir = np.array(
            [spec.direction is PinDirection.OUTPUT for spec in specs], dtype=np.int8
        )
        tpl_cap = np.array([spec.capacitance for spec in specs], dtype=float)
        tpl_is_clock = np.array([spec.is_clock for spec in specs], dtype=bool)

        pin2cell, tpl = flatten_pins(self._types, cell_type)
        n_pins = len(pin2cell)
        pin_start = np.searchsorted(pin2cell, np.arange(n_cells))
        pin_dir = tpl_dir[tpl]

        # Nets: every reference becomes a pin, and is checked as one.
        n_nets = len(self._net_name)
        net_name = list(self._net_name)
        net2pin_start = np.array(self._net_start, dtype=np.int64)
        ref_cell = np.array(self._ref_cell, dtype=np.int64)
        ref_slot = np.array(self._ref_slot, dtype=np.int64)
        # What add_net could not resolve (nothing, when cells come before
        # nets) gets its second chance; the first that still names nothing
        # ends the netlist there.
        unknown = None
        for pos, ref in self._unresolved:
            try:
                ref_cell[pos], ref_slot[pos] = self._resolve_pin_ref(ref)
            except KeyError as exc:
                unknown = exc
                ref_cell, ref_slot = ref_cell[:pos], ref_slot[:pos]
                break
        net2pin = pin_start[ref_cell] + ref_slot
        ref_net = np.repeat(np.arange(n_nets, dtype=np.int64), np.diff(net2pin_start))
        ref_net = ref_net[: len(net2pin)]
        drives = np.flatnonzero(pin_dir[net2pin] == 1)
        driven = ref_net[drives]
        # Errors surface in reference order: what comes first in the nets
        # as given, and for one reference a second net before a second
        # driver, both before any later reference that names nothing.
        faults = []
        if len(net2pin) and np.bincount(net2pin).max() > 1:
            repeat = np.ones(len(net2pin), dtype=bool)
            repeat[np.unique(net2pin, return_index=True)[1]] = False
            pos = int(np.argmax(repeat))
            cell = int(ref_cell[pos])
            spec = self._types[cell_type[cell]].pins[ref_slot[pos]]
            pin = f"{cell_name[cell]}/{spec.name}"
            faults.append((pos, 0, ValueError(f"pin {pin!r} connected to two nets")))
        second = np.flatnonzero(driven[1:] == driven[:-1])
        if len(second):
            pos = int(drives[second[0] + 1])
            faults.append(
                (pos, 1, ValueError(f"net {net_name[ref_net[pos]]!r} has multiple drivers"))
            )
        if faults:
            raise min(faults)[2]
        if unknown is not None:
            raise unknown

        pin2net = np.full(n_pins, -1, dtype=np.int64)
        pin2net[net2pin] = ref_net
        net_driver = np.full(n_nets, -1, dtype=np.int64)
        net_driver[driven] = net2pin[drives]
        net_is_clock = np.zeros(n_nets, dtype=bool)
        clock_cell = self._cell_index.get(self.constraints.clock_port, -1)
        net_is_clock[driven] = ref_cell[drives] == clock_cell

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
            pin2cell=pin2cell,
            pin_offset_x=tpl_offset_x[tpl],
            pin_offset_y=np.zeros(n_pins),
            pin_dir=pin_dir,
            pin_cap=tpl_cap[tpl],
            pin_is_clock=tpl_is_clock[tpl],
            pin2net=pin2net,
            net_name=net_name,
            net2pin_start=net2pin_start,
            net2pin=net2pin,
            net_driver=net_driver,
            net_is_clock=net_is_clock,
            constraints=self.constraints,
        )

