"""Standard-cell library model with NLDM timing arcs.

The library mirrors the parts of a Liberty file that the placer and the
timers consume: cell geometry, pin directions and capacitances, and timing
arcs characterised by 2-D lookup tables (cell_rise / cell_fall /
rise_transition / fall_transition for delay arcs, rise_constraint /
fall_constraint for setup/hold checks).

Units follow the paper's ICCAD 2015 setting: time in picoseconds,
capacitance in femtofarads, resistance in kilo-ohms (so R*C is directly in
ps), distance in micrometres.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lut import LUT

__all__ = [
    "PinDirection",
    "Unateness",
    "ArcKind",
    "PinSpec",
    "TimingArc",
    "CellType",
    "WireModel",
    "Library",
    "RISE",
    "FALL",
]

#: Transition encoding used throughout the arrays of both timers.
RISE = 0
FALL = 1


class PinDirection(enum.Enum):
    """Signal direction of a cell pin."""

    INPUT = "input"
    OUTPUT = "output"


class Unateness(enum.Enum):
    """Unateness of a delay arc: how input transitions map to output ones."""

    POSITIVE = "positive_unate"
    NEGATIVE = "negative_unate"
    NON_UNATE = "non_unate"

    def transition_sources(self, out_transition: int) -> Tuple[int, ...]:
        """Input transitions that can cause ``out_transition`` at the output."""
        if self is Unateness.POSITIVE:
            return (out_transition,)
        if self is Unateness.NEGATIVE:
            return (1 - out_transition,)
        return (RISE, FALL)


class ArcKind(enum.Enum):
    """Kind of a library timing arc."""

    COMBINATIONAL = "combinational"
    CLOCK_TO_Q = "rising_edge"
    SETUP = "setup_rising"
    HOLD = "hold_rising"

    @property
    def is_delay_arc(self) -> bool:
        """Whether the arc propagates delay (as opposed to a timing check)."""
        return self in (ArcKind.COMBINATIONAL, ArcKind.CLOCK_TO_Q)


@dataclass
class PinSpec:
    """Static description of a pin on a library cell."""

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    is_clock: bool = False
    max_capacitance: Optional[float] = None


@dataclass
class TimingArc:
    """A timing arc between two pins of the same cell.

    Delay arcs carry four LUTs (delay and output transition per output
    edge); check arcs carry two constraint LUTs indexed by
    (constrained-pin slew, clock slew).
    """

    from_pin: str
    to_pin: str
    kind: ArcKind
    unateness: Unateness = Unateness.POSITIVE
    cell_rise: Optional[LUT] = None
    cell_fall: Optional[LUT] = None
    rise_transition: Optional[LUT] = None
    fall_transition: Optional[LUT] = None
    rise_constraint: Optional[LUT] = None
    fall_constraint: Optional[LUT] = None

    def delay_lut(self, transition: int) -> LUT:
        """Delay LUT for the given output transition (RISE/FALL)."""
        lut = self.cell_rise if transition == RISE else self.cell_fall
        if lut is None:
            raise ValueError(f"arc {self.from_pin}->{self.to_pin} has no delay LUT")
        return lut

    def transition_lut(self, transition: int) -> LUT:
        """Output-slew LUT for the given output transition (RISE/FALL)."""
        lut = self.rise_transition if transition == RISE else self.fall_transition
        if lut is None:
            raise ValueError(f"arc {self.from_pin}->{self.to_pin} has no slew LUT")
        return lut

    def constraint_lut(self, transition: int) -> LUT:
        """Constraint LUT for the given data transition (RISE/FALL)."""
        lut = self.rise_constraint if transition == RISE else self.fall_constraint
        if lut is None:
            raise ValueError(
                f"arc {self.from_pin}->{self.to_pin} has no constraint LUT"
            )
        return lut


@dataclass
class CellType:
    """A library cell: geometry, pins and timing arcs."""

    name: str
    width: float
    height: float
    pins: List[PinSpec] = field(default_factory=list)
    arcs: List[TimingArc] = field(default_factory=list)
    is_sequential: bool = False
    function: str = ""

    def __post_init__(self) -> None:
        self._pin_index: Dict[str, int] = {p.name: i for i, p in enumerate(self.pins)}

    def pin_slot(self, name: str) -> Optional[int]:
        """Position of the named pin in :attr:`pins` (``None``: no such pin).

        A design flattens each cell's pins in this order, so a pin of a
        cell is its cell's first pin plus this slot.
        """
        return self._pin_index.get(name)

    def pin(self, name: str) -> PinSpec:
        """Look up a pin spec by name."""
        slot = self.pin_slot(name)
        if slot is None:
            raise KeyError(f"cell {self.name!r} has no pin {name!r}")
        return self.pins[slot]

    @property
    def input_pins(self) -> List[PinSpec]:
        return [p for p in self.pins if p.direction is PinDirection.INPUT]

    @property
    def output_pins(self) -> List[PinSpec]:
        return [p for p in self.pins if p.direction is PinDirection.OUTPUT]

    @property
    def area(self) -> float:
        return self.width * self.height

    def delay_arcs(self) -> List[TimingArc]:
        return [a for a in self.arcs if a.kind.is_delay_arc]

    def check_arcs(self) -> List[TimingArc]:
        return [a for a in self.arcs if not a.kind.is_delay_arc]


@dataclass
class WireModel:
    """Per-unit-length RC parameters for Elmore interconnect modelling.

    With distance in um, ``res_per_um`` in kOhm/um and ``cap_per_um`` in
    fF/um, a wire segment of length L contributes ``res_per_um * L`` kOhm of
    series resistance and ``cap_per_um * L`` fF of capacitance (lumped half
    at each end), so Elmore products come out in picoseconds.
    """

    res_per_um: float = 0.008
    cap_per_um: float = 0.35


@dataclass
class Library:
    """A collection of :class:`CellType` plus global wire/slew parameters."""

    name: str = "repro_lib"
    cells: Dict[str, CellType] = field(default_factory=dict)
    wire: WireModel = field(default_factory=WireModel)
    default_input_slew: float = 20.0
    time_unit: str = "1ps"
    cap_unit: str = "1ff"

    def add(self, cell: CellType) -> CellType:
        """Register a cell type; returns it for chaining."""
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> CellType:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self):
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)


def _table_axes(
    slew_axis: np.ndarray, load_axis: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    return np.asarray(slew_axis, float), np.asarray(load_axis, float)


def make_delay_tables(
    base_delay: float,
    drive_res: float,
    slew_coeff: float,
    slew_base: float,
    slew_load_coeff: float,
    slew_axis=None,
    load_axis=None,
    curvature: float = 0.004,
) -> Tuple[LUT, LUT, LUT, LUT]:
    """Characterise a delay arc into four NLDM LUTs.

    The underlying analytic model is affine in load with a mild quadratic
    term (so bilinear interpolation is genuinely exercised):

    ``delay(slew, load) = base + drive_res * load + slew_coeff * slew
    + curvature * sqrt(slew * load)``

    ``out_slew(slew, load) = slew_base + slew_load_coeff * load
    + 0.1 * slew``

    Fall tables are characterised 8% slower than rise tables, a typical
    N/P-strength asymmetry.
    """
    if slew_axis is None:
        slew_axis = np.array([2.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    if load_axis is None:
        load_axis = np.array([0.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    sx, ly = _table_axes(slew_axis, load_axis)
    s, l = np.meshgrid(sx, ly, indexing="ij")

    def delay(scale: float) -> np.ndarray:
        return scale * (
            base_delay + drive_res * l + slew_coeff * s + curvature * np.sqrt(s * l)
        )

    def out_slew(scale: float) -> np.ndarray:
        return scale * (slew_base + slew_load_coeff * l + 0.10 * s)

    return (
        LUT(sx, ly, delay(1.00), "cell_rise"),
        LUT(sx, ly, delay(1.08), "cell_fall"),
        LUT(sx, ly, out_slew(1.00), "rise_transition"),
        LUT(sx, ly, out_slew(1.08), "fall_transition"),
    )


def make_constraint_tables(
    setup_base: float, slew_coeff: float = 0.05, slew_axis=None
) -> Tuple[LUT, LUT]:
    """Characterise a setup-check arc indexed by (data slew, clock slew)."""
    if slew_axis is None:
        slew_axis = np.array([2.0, 16.0, 64.0, 256.0])
    sx = np.asarray(slew_axis, float)
    d, c = np.meshgrid(sx, sx, indexing="ij")
    values = setup_base + slew_coeff * d + 0.02 * c
    return (
        LUT(sx, sx, values, "rise_constraint"),
        LUT(sx, sx, values * 1.05, "fall_constraint"),
    )


def default_library(row_height: float = 2.0) -> Library:
    """Build the synthetic standard-cell library used by the benchmarks.

    The library contains the usual suspects (INV/BUF/NAND2/NOR2/AND2/OR2/
    XOR2/MUX2/DFF) with drive strengths and input capacitances chosen so
    that fanout and wire loading dominate path delay the same way they do in
    the ICCAD 2015 kit: a fanout-of-4 inverter stage costs ~15-25 ps.
    """
    lib = Library(name="repro_lib")
    h = row_height

    def comb(
        name: str,
        n_inputs: int,
        width: float,
        in_cap: float,
        base: float,
        rdrive: float,
        unate: Unateness,
        function: str,
    ) -> CellType:
        pins = [
            PinSpec(chr(ord("A") + i), PinDirection.INPUT, capacitance=in_cap)
            for i in range(n_inputs)
        ]
        pins.append(PinSpec("Y", PinDirection.OUTPUT, max_capacitance=120.0))
        arcs = []
        for i in range(n_inputs):
            # Later inputs of a stack are slightly slower, as in real cells.
            tables = make_delay_tables(
                base_delay=base * (1.0 + 0.12 * i),
                drive_res=rdrive,
                slew_coeff=0.085,
                slew_base=base * 0.8,
                slew_load_coeff=rdrive * 0.9,
            )
            arcs.append(
                TimingArc(
                    from_pin=chr(ord("A") + i),
                    to_pin="Y",
                    kind=ArcKind.COMBINATIONAL,
                    unateness=unate,
                    cell_rise=tables[0],
                    cell_fall=tables[1],
                    rise_transition=tables[2],
                    fall_transition=tables[3],
                )
            )
        cell = CellType(name, width, h, pins, arcs, function=function)
        return lib.add(cell)

    neg = Unateness.NEGATIVE
    pos = Unateness.POSITIVE
    non = Unateness.NON_UNATE
    comb("INV_X1", 1, 1.0, 1.6, 8.0, 2.8, neg, "!A")
    comb("INV_X2", 1, 1.5, 3.0, 7.0, 1.5, neg, "!A")
    comb("INV_X4", 1, 2.5, 5.8, 6.5, 0.8, neg, "!A")
    comb("BUF_X1", 1, 1.5, 1.5, 16.0, 2.6, pos, "A")
    comb("BUF_X2", 1, 2.0, 2.8, 14.0, 1.4, pos, "A")
    comb("NAND2_X1", 2, 1.5, 1.8, 10.0, 3.0, neg, "!(A & B)")
    comb("NOR2_X1", 2, 1.5, 1.8, 12.0, 3.4, neg, "!(A | B)")
    comb("AND2_X1", 2, 2.0, 1.7, 18.0, 2.9, pos, "A & B")
    comb("OR2_X1", 2, 2.0, 1.7, 19.0, 3.1, pos, "A | B")
    comb("XOR2_X1", 2, 3.0, 2.4, 24.0, 3.3, non, "A ^ B")
    comb("MUX2_X1", 3, 3.5, 2.0, 22.0, 3.0, non, "S ? B : A")

    # D flip-flop with a rising-edge CK->Q delay arc and a setup check.
    dff_pins = [
        PinSpec("D", PinDirection.INPUT, capacitance=2.0),
        PinSpec("CK", PinDirection.INPUT, capacitance=1.2, is_clock=True),
        PinSpec("Q", PinDirection.OUTPUT, max_capacitance=120.0),
    ]
    ck2q = make_delay_tables(
        base_delay=35.0,
        drive_res=2.2,
        slew_coeff=0.02,
        slew_base=26.0,
        slew_load_coeff=2.0,
    )
    setup = make_constraint_tables(setup_base=12.0)
    hold = make_constraint_tables(setup_base=3.0, slew_coeff=0.02)
    dff_arcs = [
        TimingArc(
            "CK",
            "Q",
            ArcKind.CLOCK_TO_Q,
            Unateness.NON_UNATE,
            cell_rise=ck2q[0],
            cell_fall=ck2q[1],
            rise_transition=ck2q[2],
            fall_transition=ck2q[3],
        ),
        TimingArc(
            "CK",
            "D",
            ArcKind.SETUP,
            Unateness.NON_UNATE,
            rise_constraint=setup[0],
            fall_constraint=setup[1],
        ),
        TimingArc(
            "CK",
            "D",
            ArcKind.HOLD,
            Unateness.NON_UNATE,
            rise_constraint=hold[0],
            fall_constraint=hold[1],
        ),
    ]
    lib.add(CellType("DFF_X1", 4.0, h, dff_pins, dff_arcs, is_sequential=True))
    return lib
