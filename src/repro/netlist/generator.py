"""Synthetic benchmark generation.

The ICCAD 2015 contest designs evaluated by the paper are proprietary, so
the benchmark suite here is generated: layered sequential netlists with
deep combinational paths, realistic fanout distributions, a single ideal
clock, and die areas sized to a target utilisation.  The statistical knobs
(cell count, logic depth, fanout mix, FF fraction) are what the paper's
algorithms are sensitive to; see DESIGN.md for the substitution rationale.

Two entry points:

- :func:`generate_design` - fully parameterised generator.
- :func:`make_chain_design` - a tiny inverter/buffer chain for unit tests.

Two construction engines sit behind :func:`generate_design`, selected by
``GeneratorSpec.engine``:

- ``"reference"`` (default) - the original scalar generator.  Its signal
  pool re-scans every candidate driver per connection, which is O(n^2) in
  cell count: perfect for the ~1-2.5k-cell miniblue suite, hopeless past
  ~10k cells.  Every published miniblue design keeps using this engine so
  their netlists (and all downstream metrics) stay bit-identical.
- ``"vectorized"`` - an O(n) layered engine for the midiblue designs
  (50k-500k cells): cell types, per-layer driver picks and lookback
  connections are all drawn as NumPy batches, and the dangling-output
  sweep works on arrays.  Same structural guarantees as the reference
  engine (strictly layer-forward connections, hence acyclic; every net
  driven and sunk; single ideal clock), different - but equally
  deterministic - netlists.

The miniblue/midiblue suites (Table 2 equivalent) are defined in
:mod:`repro.harness.suite` on top of :func:`generate_design`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import Constraints, Design, DesignBuilder
from .library import Library, PinDirection, default_library

__all__ = ["GeneratorSpec", "generate_design", "make_chain_design"]


@dataclass
class GeneratorSpec:
    """Knobs for :func:`generate_design`."""

    name: str = "synthetic"
    n_cells: int = 1000
    depth: int = 16
    ff_fraction: float = 0.12
    n_inputs: int = 24
    n_outputs: int = 24
    utilization: float = 0.70
    max_fanout: int = 8
    n_high_fanout_nets: int = 4
    high_fanout: int = 16
    clock_period: Optional[float] = None
    period_tightness: float = 0.75
    seed: int = 0
    #: Construction engine: "reference" (scalar, bit-stable for the
    #: existing miniblue suite) or "vectorized" (O(n), for 50k+ cells).
    engine: str = "reference"
    comb_type_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "INV_X1": 0.14,
            "INV_X2": 0.05,
            "BUF_X1": 0.06,
            "NAND2_X1": 0.18,
            "NOR2_X1": 0.11,
            "AND2_X1": 0.13,
            "OR2_X1": 0.11,
            "XOR2_X1": 0.09,
            "MUX2_X1": 0.08,
            "INV_X4": 0.03,
            "BUF_X2": 0.02,
        }
    )


def _estimate_clock_period(spec: GeneratorSpec) -> float:
    """Heuristic period: depth x typical loaded stage delay x tightness.

    A fanout-loaded stage of the default library costs roughly 28-40 ps
    (base delay + drive resistance x a few input caps + wire).  Tightness
    below 1.0 makes the initial placement violate setup, which is the
    regime the paper's experiments operate in.
    """
    stage_delay = 55.0
    ff_overhead = 60.0
    return spec.period_tightness * (spec.depth * stage_delay + ff_overhead)


class _SignalPool:
    """Tracks driver pins available for connection and their fanout."""

    def __init__(self, rng: np.random.Generator, max_fanout: int) -> None:
        self.rng = rng
        self.max_fanout = max_fanout
        self.signals: List[str] = []  # pin refs like "u3/Y" or port names
        self.level: List[int] = []
        self.fanout: List[int] = []

    def add(self, ref: str, level: int) -> None:
        self.signals.append(ref)
        self.level.append(level)
        self.fanout.append(0)

    def pick(self, min_level: int, max_level: int, prefer_unused: bool = True) -> int:
        """Pick a signal index with level in [min_level, max_level]."""
        candidates = [
            i
            for i, lv in enumerate(self.level)
            if min_level <= lv <= max_level and self.fanout[i] < self.max_fanout
        ]
        if not candidates:
            candidates = [
                i for i, lv in enumerate(self.level) if min_level <= lv <= max_level
            ]
        if not candidates:
            candidates = list(range(len(self.signals)))
        if prefer_unused:
            unused = [i for i in candidates if self.fanout[i] == 0]
            if unused and self.rng.random() < 0.6:
                candidates = unused
        weights = np.array([1.0 / (1.0 + self.fanout[i]) ** 2 for i in candidates])
        weights /= weights.sum()
        choice = int(self.rng.choice(len(candidates), p=weights))
        idx = candidates[choice]
        self.fanout[idx] += 1
        return idx

    def unused(self) -> List[int]:
        return [i for i, f in enumerate(self.fanout) if f == 0]


def generate_design(spec: GeneratorSpec, library: Optional[Library] = None) -> Design:
    """Generate a synthetic sequential design from a :class:`GeneratorSpec`."""
    lib = library if library is not None else default_library()
    if spec.engine == "reference":
        return _generate_reference(spec, lib)
    if spec.engine == "vectorized":
        return _generate_vectorized(spec, lib)
    raise ValueError(
        f"unknown generator engine {spec.engine!r}; "
        "expected 'reference' or 'vectorized'"
    )


def _make_constraints(
    spec: GeneratorSpec,
    rng: np.random.Generator,
    pi_names: Sequence[str],
    po_names: Sequence[str],
) -> Constraints:
    """Clock period plus randomized per-port boundary conditions.

    Draw order (per-PI delay then slew, per-PO delay then load) is part of
    the reference engine's bit-stability contract - do not reorder.
    """
    period = (
        spec.clock_period
        if spec.clock_period is not None
        else _estimate_clock_period(spec)
    )
    constraints = Constraints(clock_period=period, clock_port="clk")
    for name in pi_names:
        constraints.input_delays[name] = float(rng.uniform(0.0, 0.1 * period))
        constraints.input_slews[name] = float(rng.uniform(10.0, 40.0))
    for name in po_names:
        constraints.output_delays[name] = float(rng.uniform(0.0, 0.1 * period))
        constraints.output_loads[name] = float(rng.uniform(2.0, 8.0))
    return constraints


def _emit_design(
    spec: GeneratorSpec,
    lib: Library,
    constraints: Constraints,
    cell_names: Sequence[str],
    type_names: Sequence[str],
    type_of: np.ndarray,
    pi_names: Sequence[str],
    po_names: Sequence[str],
    collector_po: Optional[str],
) -> DesignBuilder:
    """Die sizing from the *actual* cell list, then ports and cells.

    Shared by both engines: cell ``i`` is a ``type_names[type_of[i]]``.
    The builder's cells are, in order: ``clk``, the inputs, the outputs,
    the collector output if any, then the cells.  The engine adds its
    nets to the returned builder and builds.
    """
    # Summed cell by cell, left to right: the die (and every coordinate
    # after it) must not move with the order of a float reduction.
    type_area = np.array([lib[t].area for t in type_names])
    total_area = float(sum(type_area[type_of].tolist()))
    die_area = total_area / spec.utilization
    row_h = lib["DFF_X1"].height
    side = math.sqrt(die_area)
    n_rows = max(int(round(side / row_h)), 4)
    height = n_rows * row_h
    width = die_area / height
    die = (0.0, 0.0, round(width, 3), round(height, 3))
    xl, yl, xh, yh = die

    builder = DesignBuilder(
        spec.name, lib, die=die, row_height=row_h, constraints=constraints
    )
    builder.add_input("clk", x=xl, y=yl)
    for i, name in enumerate(pi_names):
        frac = (i + 1) / (spec.n_inputs + 1)
        builder.add_input(name, x=xl, y=yl + frac * (yh - yl))
    for i, name in enumerate(po_names):
        frac = (i + 1) / (spec.n_outputs + 1)
        builder.add_output(name, x=xh, y=yl + frac * (yh - yl))
    if collector_po is not None:
        builder.add_output(collector_po, x=xh, y=yh)
    builder.add_cells(cell_names, type_names, type_of)
    return builder


def _generate_reference(spec: GeneratorSpec, lib: Library) -> Design:
    """The original scalar engine (bit-stable for the miniblue suite)."""
    rng = np.random.default_rng(spec.seed)

    n_ff = max(int(spec.n_cells * spec.ff_fraction), 2)
    n_comb = max(spec.n_cells - n_ff, spec.depth)

    type_names = list(spec.comb_type_weights)
    type_probs = np.array([spec.comb_type_weights[t] for t in type_names])
    type_probs = type_probs / type_probs.sum()

    # ------------------------------------------------------------------
    # Phase 1: construct the netlist structure (no coordinates yet).
    # ------------------------------------------------------------------
    cell_list: List[Tuple[str, str]] = []  # (instance name, cell type)
    pi_names = [f"in{i}" for i in range(spec.n_inputs)]
    po_names = [f"out{i}" for i in range(spec.n_outputs)]
    constraints = _make_constraints(spec, rng, pi_names, po_names)

    pool = _SignalPool(rng, spec.max_fanout)
    for name in pi_names:
        pool.add(name, 0)
    ff_names = [f"ff{i}" for i in range(n_ff)]
    for name in ff_names:
        cell_list.append((name, "DFF_X1"))
        pool.add(f"{name}/Q", 0)

    # Layered combinational fabric.
    per_layer = [n_comb // spec.depth] * spec.depth
    for i in range(n_comb - sum(per_layer)):
        per_layer[i % spec.depth] += 1

    nets: Dict[str, List[str]] = {}  # driver ref -> sink refs

    def connect(input_ref: str, min_level: int, max_level: int) -> None:
        idx = pool.pick(min_level, max_level)
        nets.setdefault(pool.signals[idx], []).append(input_ref)

    cell_counter = 0
    for layer in range(1, spec.depth + 1):
        for _ in range(per_layer[layer - 1]):
            type_name = type_names[int(rng.choice(len(type_names), p=type_probs))]
            ctype = lib[type_name]
            cell_name = f"u{cell_counter}"
            cell_counter += 1
            cell_list.append((cell_name, type_name))
            input_pins = [p.name for p in ctype.input_pins]
            # First input comes from the previous layer to guarantee depth;
            # the rest reach back further for reconvergence.
            connect(f"{cell_name}/{input_pins[0]}", layer - 1, layer - 1)
            for pin_name in input_pins[1:]:
                lo = max(0, layer - 1 - int(rng.integers(0, 4)))
                connect(f"{cell_name}/{pin_name}", lo, layer - 1)
            out_pin = ctype.output_pins[0].name
            pool.add(f"{cell_name}/{out_pin}", layer)

    # Endpoint hookup: FF D pins and POs consume late-layer signals.
    for name in ff_names:
        connect(f"{name}/D", max(1, spec.depth - 3), spec.depth)
    for name in po_names:
        connect(name, max(1, spec.depth - 2), spec.depth)

    # A few deliberately high-fanout nets (enable/select-style signals).
    for _ in range(spec.n_high_fanout_nets):
        idx = int(rng.integers(0, len(pool.signals)))
        driver_ref = pool.signals[idx]
        if "/" not in driver_ref:
            continue
        extra = nets.setdefault(driver_ref, [])
        for _k in range(spec.high_fanout):
            buf_name = f"hf{cell_counter}"
            cell_counter += 1
            cell_list.append((buf_name, "BUF_X1"))
            extra.append(f"{buf_name}/A")
            pool.add(f"{buf_name}/Y", pool.level[idx] + 1)

    # Sweep dangling outputs into a PO via shared collector gates so every
    # net has at least one sink.
    dangling = [pool.signals[i] for i in pool.unused() if "/" in pool.signals[i]]
    collector_inputs: List[str] = list(dangling)
    while len(collector_inputs) > 1:
        next_round: List[str] = []
        for i in range(0, len(collector_inputs) - 1, 2):
            gate = f"col{cell_counter}"
            cell_counter += 1
            cell_list.append((gate, "NAND2_X1"))
            nets.setdefault(collector_inputs[i], []).append(f"{gate}/A")
            nets.setdefault(collector_inputs[i + 1], []).append(f"{gate}/B")
            next_round.append(f"{gate}/Y")
        if len(collector_inputs) % 2 == 1:
            next_round.append(collector_inputs[-1])
        collector_inputs = next_round
    collector_po = f"col_out{cell_counter}" if collector_inputs else None
    if collector_po is not None:
        constraints.output_delays[collector_po] = 0.0
        constraints.output_loads[collector_po] = 4.0
        nets.setdefault(collector_inputs[0], []).append(collector_po)

    type_index = {t: i for i, t in enumerate(dict.fromkeys(t for _, t in cell_list))}
    builder = _emit_design(
        spec, lib, constraints,
        [name for name, _ in cell_list],
        list(type_index),
        np.array([type_index[t] for _, t in cell_list], dtype=np.int64),
        pi_names, po_names, collector_po,
    )
    for k, (driver_ref, sinks) in enumerate(nets.items()):
        builder.add_net(f"n{k}", [driver_ref] + sinks)
    builder.add_net("clknet", ["clk"] + [f"{name}/CK" for name in ff_names])
    return builder.build()


def _slot(lib: Library, type_name: str, pin_name: str) -> int:
    """Position of a named pin in its cell type's ``pins``."""
    ctype = lib[type_name]
    ctype.pin(pin_name)  # KeyError when the cell has no such pin
    return ctype.pin_slot(pin_name)


def _generate_vectorized(spec: GeneratorSpec, lib: Library) -> Design:
    """O(n) layered engine for midiblue-scale designs (50k-500k cells).

    Connectivity is drawn as NumPy batches per layer instead of per pin:

    - each layer's first inputs cover the previous layer via a shuffled
      assignment (every previous-layer output picks up a sink before any
      gets a second one), so few signals dangle;
    - remaining inputs reach back up to 4 layers for reconvergence,
      sampled uniformly from the contiguous signal-id block of the chosen
      level range (signals are appended in level order, so a level range
      is always one contiguous id interval);
    - the dangling-output sweep, FF/PO endpoint hookups and high-fanout
      nets mirror the reference engine but operate on id arrays.

    Strictly layer-forward drivers make the netlist acyclic by
    construction; the collector tree guarantees every net has a sink.

    Pins are never named here: a signal is the ``(cell, pin slot)`` of
    its driver, an edge the signal id of its driver plus the ``(cell,
    pin slot)`` of its sink, and the nets are handed to the builder in
    that form.  Until the number of ports is known (the collector output
    comes last) a cell is its position in the cell list and a port the
    complement ``~q`` of its builder index ``q``.
    """
    rng = np.random.default_rng(spec.seed)

    n_ff = max(int(spec.n_cells * spec.ff_fraction), 2)
    n_comb = max(spec.n_cells - n_ff, spec.depth)

    type_names = list(spec.comb_type_weights)
    type_probs = np.array([spec.comb_type_weights[t] for t in type_names])
    type_probs = type_probs / type_probs.sum()
    type_in_slots = [
        [i for i, p in enumerate(lib[t].pins) if p.direction is PinDirection.INPUT]
        for t in type_names
    ]
    type_n_in = np.array([len(slots) for slots in type_in_slots])
    #: in_slot[t, j]: slot of type t's j-th input pin.
    in_slot = np.zeros((len(type_names), int(type_n_in.max(initial=1))), dtype=np.int64)
    for t, slots in enumerate(type_in_slots):
        in_slot[t, : len(slots)] = slots
    out_slot = np.array(
        [_slot(lib, t, lib[t].output_pins[0].name) for t in type_names],
        dtype=np.int64,
    )
    # Cell types, as indices into this palette.
    palette = ["DFF_X1", *type_names, "BUF_X1", "NAND2_X1"]
    dff, buf, nand = 0, len(type_names) + 1, len(type_names) + 2

    pi_names = [f"in{i}" for i in range(spec.n_inputs)]
    po_names = [f"out{i}" for i in range(spec.n_outputs)]
    constraints = _make_constraints(spec, rng, pi_names, po_names)

    # Ports in the order _emit_design adds them: clk, inputs, outputs.
    pi_cells = ~(1 + np.arange(spec.n_inputs, dtype=np.int64))
    po_cells = ~(1 + spec.n_inputs + np.arange(spec.n_outputs, dtype=np.int64))
    n_ports = 1 + spec.n_inputs + spec.n_outputs

    cell_names: List[str] = [f"ff{i}" for i in range(n_ff)]
    cell_type: List[np.ndarray] = [np.full(n_ff, dff, dtype=np.int64)]
    cell_counter = 0  # numbers the u/hf/col cells
    ff_cells = np.arange(n_ff, dtype=np.int64)

    # Signals are appended level block by level block: level L's driver
    # ids occupy [level_start[L], level_start[L + 1]).  Signals below
    # ``n_inputs`` are the input ports.
    sig_cell: List[np.ndarray] = [pi_cells, ff_cells]
    sig_slot: List[np.ndarray] = [
        np.zeros(spec.n_inputs, dtype=np.int64),
        np.full(n_ff, _slot(lib, "DFF_X1", "Q"), dtype=np.int64),
    ]
    n_signals = spec.n_inputs + n_ff
    level_start: List[int] = [0, n_signals]

    per_layer = [n_comb // spec.depth] * spec.depth
    for i in range(n_comb - sum(per_layer)):
        per_layer[i % spec.depth] += 1

    # Edges accumulate as chunks of (driver signal id, sink cell, sink
    # pin slot); flattened once at the end.
    edge_driver: List[np.ndarray] = []
    edge_cell: List[np.ndarray] = []
    edge_slot: List[np.ndarray] = []

    def new_cells(prefix: str, count: int, type_of: np.ndarray) -> np.ndarray:
        """Name and type ``count`` more cells; returns their positions."""
        nonlocal cell_counter
        cells = len(cell_names) + np.arange(count, dtype=np.int64)
        cell_names.extend([f"{prefix}{cell_counter + i}" for i in range(count)])
        cell_type.append(type_of)
        cell_counter += count
        return cells

    def new_signals(cells: np.ndarray, slots: np.ndarray) -> np.ndarray:
        nonlocal n_signals
        ids = n_signals + np.arange(len(cells), dtype=np.int64)
        sig_cell.append(cells)
        sig_slot.append(slots)
        n_signals += len(cells)
        return ids

    def connect(drivers: np.ndarray, cells: np.ndarray, slots: np.ndarray) -> None:
        edge_driver.append(drivers)
        edge_cell.append(cells)
        edge_slot.append(slots)

    for layer in range(1, spec.depth + 1):
        k = per_layer[layer - 1]
        t_idx = rng.choice(len(type_names), size=k, p=type_probs)
        cells = new_cells("u", k, 1 + t_idx)

        # First input: cover the previous layer before any repeats.
        prev_lo, prev_hi = level_start[layer - 1], level_start[layer]
        perm = rng.permutation(np.arange(prev_lo, prev_hi, dtype=np.int64))
        if k <= perm.size:
            first = perm[:k]
        else:
            first = np.concatenate(
                [perm, prev_lo + rng.integers(0, perm.size, size=k - perm.size)]
            )
        connect(first, cells, in_slot[t_idx, 0])

        # Later inputs reach back up to 4 levels for reconvergence.
        starts = np.asarray(level_start, dtype=np.int64)
        hi = level_start[layer]
        for slot in range(1, int(type_n_in[t_idx].max(initial=1))):
            which = np.nonzero(type_n_in[t_idx] > slot)[0]
            if which.size == 0:
                continue
            lo_level = np.maximum(
                0, layer - 1 - rng.integers(0, 4, size=which.size)
            )
            lo = starts[lo_level]
            picks = lo + np.minimum(
                np.floor(rng.random(which.size) * (hi - lo)).astype(np.int64),
                hi - lo - 1,
            )
            connect(picks, cells[which], in_slot[t_idx[which], slot])

        new_signals(cells, out_slot[t_idx])
        level_start.append(n_signals)

    # Endpoint hookup: FF D pins and POs consume late-layer signals.
    for cells, slot, lo_level in (
        (ff_cells, _slot(lib, "DFF_X1", "D"), max(1, spec.depth - 3)),
        (po_cells, 0, max(1, spec.depth - 2)),
    ):
        lo, hi = level_start[lo_level], n_signals
        connect(
            lo + rng.integers(0, hi - lo, size=len(cells)),
            cells,
            np.full(len(cells), slot, dtype=np.int64),
        )

    # A few deliberately high-fanout nets (enable/select-style signals).
    fan = spec.high_fanout
    for _ in range(spec.n_high_fanout_nets):
        idx = int(rng.integers(0, n_signals))
        if idx < spec.n_inputs:
            continue
        bufs = new_cells("hf", fan, np.full(fan, buf, dtype=np.int64))
        connect(
            np.full(fan, idx, dtype=np.int64),
            bufs,
            np.full(fan, _slot(lib, "BUF_X1", "A"), dtype=np.int64),
        )
        # Buffer outputs register as signals; unused ones are swept below.
        new_signals(bufs, np.full(fan, _slot(lib, "BUF_X1", "Y"), dtype=np.int64))

    # Sweep dangling cell outputs into a PO via shared collector gates so
    # every net has at least one sink (port signals may legally dangle).
    fanout = np.bincount(np.concatenate(edge_driver), minlength=n_signals)
    inputs = np.nonzero((fanout == 0) & (np.arange(n_signals) >= spec.n_inputs))[0]
    nand_in = np.array([_slot(lib, "NAND2_X1", "A"), _slot(lib, "NAND2_X1", "B")])
    while len(inputs) > 1:
        n_pairs = len(inputs) // 2
        gates = new_cells("col", n_pairs, np.full(n_pairs, nand, dtype=np.int64))
        connect(inputs[: 2 * n_pairs], np.repeat(gates, 2), np.tile(nand_in, n_pairs))
        outputs = new_signals(
            gates, np.full(n_pairs, _slot(lib, "NAND2_X1", "Y"), dtype=np.int64)
        )
        inputs = np.concatenate([outputs, inputs[2 * n_pairs :]])

    collector_po = f"col_out{cell_counter}" if len(inputs) else None
    if collector_po is not None:
        constraints.output_delays[collector_po] = 0.0
        constraints.output_loads[collector_po] = 4.0
        connect(inputs[:1], np.array([~n_ports]), np.array([0]))
        n_ports += 1

    def builder_index(cells: np.ndarray) -> np.ndarray:
        return np.where(cells < 0, ~cells, n_ports + cells)

    signal_cell = builder_index(np.concatenate(sig_cell))
    signal_slot = np.concatenate(sig_slot)
    driver = np.concatenate(edge_driver)
    sink_cell = builder_index(np.concatenate(edge_cell))
    sink_slot = np.concatenate(edge_slot)

    # Group sinks by driver, preserving first-appearance net order; each
    # net lists its driver, then its sinks in edge order.
    net_signal, first, net_of_edge = np.unique(
        driver, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    rank = np.empty(len(net_signal), dtype=np.int64)
    rank[by_first] = np.arange(len(net_signal))
    net_of_edge = rank[net_of_edge]
    net_signal = net_signal[by_first]
    by_net = np.argsort(net_of_edge, kind="stable")
    size = 1 + np.bincount(net_of_edge, minlength=len(net_signal))
    # ... and the clock net last: clk, then every flip-flop's CK pin.
    size = np.append(size, 1 + n_ff)
    start = np.zeros(len(size) + 1, dtype=np.int64)
    np.cumsum(size, out=start[1:])
    clk_at = int(start[-2])
    is_sink = np.ones(clk_at, dtype=bool)
    is_sink[start[:-2]] = False
    ref_cell = np.empty(int(start[-1]), dtype=np.int64)
    ref_slot = np.empty(int(start[-1]), dtype=np.int64)
    ref_cell[start[:-2]] = signal_cell[net_signal]
    ref_slot[start[:-2]] = signal_slot[net_signal]
    ref_cell[:clk_at][is_sink] = sink_cell[by_net]
    ref_slot[:clk_at][is_sink] = sink_slot[by_net]
    ref_cell[clk_at] = ref_slot[clk_at] = 0
    ref_cell[clk_at + 1 :] = builder_index(ff_cells)
    ref_slot[clk_at + 1 :] = _slot(lib, "DFF_X1", "CK")

    builder = _emit_design(
        spec, lib, constraints, cell_names, palette, np.concatenate(cell_type),
        pi_names, po_names, collector_po,
    )
    builder.add_nets(
        [f"n{k}" for k in range(len(net_signal))] + ["clknet"],
        start, ref_cell, ref_slot,
    )
    return builder.build()


def make_chain_design(
    n_stages: int = 4,
    cell: str = "INV_X1",
    library: Optional[Library] = None,
    clock_period: float = 200.0,
    die: Tuple[float, float, float, float] = (0.0, 0.0, 60.0, 20.0),
    spread: bool = True,
) -> Design:
    """A PI -> chain of gates -> FF -> PO design for unit tests.

    The chain is ``in0 -> g0 -> g1 -> ... -> ff0/D`` with ``ff0/Q -> out0``,
    plus a clock port.  With ``spread=True`` the cells are pre-placed on a
    horizontal line so wire delays are nonzero and deterministic.
    """
    lib = library if library is not None else default_library()
    constraints = Constraints(clock_period=clock_period, clock_port="clk")
    builder = DesignBuilder("chain", lib, die=die, constraints=constraints)
    xl, yl, xh, yh = die
    y_mid = 0.5 * (yl + yh)
    builder.add_input("clk", x=xl, y=yl)
    builder.add_input("in0", x=xl, y=y_mid)
    builder.add_output("out0", x=xh, y=y_mid)

    gate_names = []
    for i in range(n_stages):
        name = f"g{i}"
        x = xl + (i + 1) * (xh - xl) / (n_stages + 3) if spread else None
        builder.add_cell(name, cell, x=x, y=y_mid)
        gate_names.append(name)
    builder.add_cell(
        "ff0",
        "DFF_X1",
        x=xl + (n_stages + 1) * (xh - xl) / (n_stages + 3) if spread else None,
        y=y_mid,
    )

    in_pin = lib[cell].input_pins[0].name
    out_pin = lib[cell].output_pins[0].name
    prev = "in0"
    for i, name in enumerate(gate_names):
        builder.add_net(f"n{i}", [prev, f"{name}/{in_pin}"])
        prev = f"{name}/{out_pin}"
    builder.add_net("n_d", [prev, "ff0/D"])
    builder.add_net("n_q", ["ff0/Q", "out0"])
    builder.add_net("clknet", ["clk", "ff0/CK"])
    return builder.build()
