"""Wirelength objectives: exact HPWL and the weighted-average (WA) model.

HPWL is the reporting metric (Table 3 of the paper).  The optimizer uses
the smooth weighted-average wirelength of DREAMPlace, whose per-net maximum
is ``WA+ = sum(x * exp(x / gamma)) / sum(exp(x / gamma))`` with the closed-
form gradient ``dWA+/dx_j = (a_j / b)(1 + (x_j - WA+) / gamma)``.

Both run over one per-design :class:`NetLayout`.  Nets of equal degree
``d`` (2 <= d <= 8, nearly all of them) form a *bucket*, cut into *chunks*
of consecutive nets whose pins are stored slot-major - a ``(d, k)`` block,
slot ``j`` of every net contiguous - so a per-net max/min/sum is ``d - 1``
whole-row vector ops and spreading a per-net value over its pins is a
broadcast view.  The few larger nets follow as a ragged tail in CSR order,
the only place a segmented ``reduceat`` and an index gather remain.  Nets
of fewer than two pins have no slot: they contribute exactly 0 to value,
gradient and HPWL.  Chunks and tail fill *strips* of at most
``STRIP_PINS`` pins, and WA and HPWL run their whole pipeline once per
strip, so its work arrays stay cache-sized; a design of a few thousand
pins is one strip.

Summation-order contract (results are bit-identical to one ``reduceat``
over the CSR pin list): a chunk sum is ``B[0] + ((B[1] + B[2]) + ...)``,
which is what ``add.reduceat`` computes for a segment of at most 8
elements; per-net terms return to net order before they are summed over
nets; per-pin gradients return to CSR pin order before the scatter-add, so
every cell accumulates its pins in that order.  Running per strip leaves
the contract as it is: every per-net and per-pin value reads its own
net's pins only, and the sums over nets and over a cell's pins run once,
over whole arrays, after the last strip.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.scatter import WORK_SET_ENTRIES, scatter_add
from ..netlist.design import Design

__all__ = ["hpwl", "NetLayout", "WAWirelength"]

#: Largest degree that gets a bucket.  ``add.reduceat`` switches to an
#: unrolled pairwise sum from the 9th element of a segment on, which a
#: row-by-row bucket sum would not reproduce.
MAX_BUCKET_DEGREE = 8
#: Most pins in one strip.  A WA evaluation keeps ~16 float64 per strip pin
#: live (coordinates, both sides' exponentials and products, the gathers
#: and the gradient), so a strip's working set is ``WORK_SET_ENTRIES``.
STRIP_PINS = WORK_SET_ENTRIES // 16


class _Strip:
    """A pin range and a net range of the layout: whole chunks, then maybe
    the tail.

    Pin and net arrays handed to its methods are the strip's own
    (``(..., n_pins)`` / ``(..., n_nets)`` of this strip, positions relative
    to its first pin and net).  ``cell`` and ``offset`` are views of the
    layout's tables.
    """

    def __init__(self, layout, pieces, tail_starts, tail_degrees) -> None:
        _, pin0, net0, _, _ = pieces[0]
        _, pin1, net1, n1, m1 = pieces[-1]
        #: Layout pin range and net range.
        self.pins = slice(pin0, pin1 + m1)
        self.nets = slice(net0, net1 + n1)
        self.n_nets = net1 + n1 - net0
        self.cell = layout.cell[self.pins]
        self.offset = layout.offset[:, self.pins]
        #: ``(degree, net count, pin range, net range)`` of each chunk.
        self.chunks = []
        #: ``(pin range, net range, segment starts, net of each pin)`` of
        #: the ragged tail, or None.
        self.tail = None
        for d, pin, net, n, m in pieces:
            pins = slice(pin - pin0, pin - pin0 + m)
            nets = slice(net - net0, net - net0 + n)
            if d:
                self.chunks.append((d, n, pins, nets))
            else:
                pin_net = np.repeat(np.arange(n, dtype=np.int32), tail_degrees)
                self.tail = (pins, nets, tail_starts, pin_net)

    def coords(self, cell_x: np.ndarray, cell_y: np.ndarray) -> np.ndarray:
        """``(2, n_pins)`` pin coordinates, one gather per axis."""
        coord = np.empty(self.offset.shape, dtype=np.float64)
        np.add(np.take(cell_x, self.cell), self.offset[0], out=coord[0])
        np.add(np.take(cell_y, self.cell), self.offset[1], out=coord[1])
        return coord

    def reduce(
        self, ufunc, pins: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-net ``ufunc`` reduction (maximum, minimum or add) of a pin array."""
        lead = pins.shape[:-1]
        if out is None:
            out = np.empty(lead + (self.n_nets,), dtype=np.float64)
        for d, n, pin_range, net_range in self.chunks:
            block = pins[..., pin_range].reshape(lead + (d, n))
            if ufunc is not np.add:
                ufunc.reduce(block, axis=-2, out=out[..., net_range])
            elif d == 2:
                np.add(block[..., 0, :], block[..., 1, :], out=out[..., net_range])
            else:
                # Slot 0 plus the left-to-right sum of the rest: the
                # order ``add.reduceat`` uses on a segment this short.
                rest = np.add.reduce(block[..., 1:, :], axis=-2)
                np.add(block[..., 0, :], rest, out=out[..., net_range])
        if self.tail is not None:
            pin_range, net_range, starts, _ = self.tail
            # reprolint: allow[no-scatter-add-at] the ragged tail: the few nets above MAX_BUCKET_DEGREE, CSR segments inside the layout
            ufunc.reduceat(
                pins[..., pin_range], starts, axis=-1, out=out[..., net_range]
            )
        return out

    def extremes(self, pins: np.ndarray) -> np.ndarray:
        """Per-net maximum (``[0]``) and minimum (``[1]``) of a pin array."""
        out = np.empty((2,) + pins.shape[:-1] + (self.n_nets,), dtype=np.float64)
        self.reduce(np.maximum, pins, out=out[0])
        self.reduce(np.minimum, pins, out=out[1])
        return out

    def spread(
        self, ufunc, pins: np.ndarray, nets: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = ufunc(pins, nets)`` with each net's value at all its pins.

        ``pins`` may lack leading axes of ``nets`` / ``out`` (broadcast).
        """
        for d, n, pin_range, net_range in self.chunks:
            ufunc(
                pins[..., pin_range].reshape(pins.shape[:-1] + (d, n)),
                nets[..., None, net_range],
                out=out[..., pin_range].reshape(out.shape[:-1] + (d, n)),
            )
        if self.tail is not None:
            pin_range, net_range, _, pin_net = self.tail
            ufunc(
                pins[..., pin_range],
                nets[..., net_range].take(pin_net, axis=-1),
                out=out[..., pin_range],
            )
        return out


class NetLayout:
    """Pins of all nets with >= 2 pins, degree buckets first, ragged tail last.

    A *pin array* is ``(..., n_pins)`` in layout order, a *net array*
    ``(..., n_nets)`` in layout net order (``net`` maps it to design net
    ids); leading axes stack independent problems (the x and y axis, the
    max and the min side).  Each bucket is cut into slot-major chunks of
    consecutive nets, and chunks and tail are packed in layout order into
    ``strips`` of at most ``STRIP_PINS`` pins.  Only index tables and the
    rigid pin offsets are held; work arrays are the caller's, one strip at
    a time.
    """

    def __init__(self, design: Design) -> None:
        degrees = design.net_degrees
        starts = design.net2pin_start[:-1]
        live = np.nonzero(degrees >= 2)[0]
        # Buckets by ascending degree, then the tail; net order within each.
        rank = np.minimum(degrees[live], MAX_BUCKET_DEGREE + 1)
        by_rank = np.argsort(rank, kind="stable")
        live, rank = live[by_rank], rank[by_rank]
        #: Design net id of each layout net.
        self.net = live.astype(np.int32)
        self.n_nets = len(live)
        self.n_cells = design.n_cells
        #: Layout net of each design net (0 where ``dead``), and the
        #: design nets of fewer than 2 pins.
        self.net_slot = np.zeros(design.n_nets, dtype=np.int32)
        self.net_slot[live] = np.arange(len(live), dtype=np.int32)
        self.dead = np.nonzero(degrees < 2)[0]

        counts = np.bincount(rank, minlength=MAX_BUCKET_DEGREE + 1).tolist()
        #: ``(degree, net count)`` of each bucket.
        self.buckets = [
            (d, n) for d, n in enumerate(counts[: MAX_BUCKET_DEGREE + 1]) if n
        ]

        # Chunks of consecutive nets fill the strips in layout order (a chunk
        # holds at least one net); the tail joins the last strip if it fits,
        # else it is a strip of its own.  A piece is (degree, first pin,
        # first net, net count, pin count), degree 0 for the tail.
        slots = [np.zeros(0, dtype=np.int64)]  # CSR position of each layout pin
        pieces, cuts = [], [0]  # cuts: the first piece of each strip
        room = STRIP_PINS
        pin_lo = net_lo = 0
        for d, n in self.buckets:
            while n:
                if d > room and len(pieces) > cuts[-1]:
                    cuts.append(len(pieces))
                    room = STRIP_PINS
                k = min(n, max(room // d, 1))
                first = starts[live[net_lo : net_lo + k]]
                slots.append((first + np.arange(d)[:, None]).reshape(-1))
                pieces.append((d, pin_lo, net_lo, k, d * k))
                room -= d * k
                pin_lo += d * k
                net_lo += k
                n -= k
        tail_degrees = degrees[live[net_lo:]]
        tail_starts = np.cumsum(tail_degrees) - tail_degrees
        tail_pins = int(tail_degrees.sum())
        if tail_pins:
            if tail_pins > room and len(pieces) > cuts[-1]:
                cuts.append(len(pieces))
            slots.append(
                np.repeat(starts[live[net_lo:]] - tail_starts, tail_degrees)
                + np.arange(tail_pins)
            )
            pieces.append((0, pin_lo, net_lo, len(tail_degrees), tail_pins))
        cuts.append(len(pieces))
        slot = np.concatenate(slots)
        self.n_pins = len(slot)

        pin = design.net2pin[slot]
        #: Design pin id and cell of each layout pin.
        self.pin = pin.astype(np.int32)
        self.cell = design.pin2cell[pin].astype(np.int32)
        #: Pin offsets from the cell center, rows x and y.
        self.offset = np.stack([design.pin_offset_x[pin], design.pin_offset_y[pin]])
        #: Layout position of the k-th live pin in CSR order, and its cell.
        csr_rank = np.cumsum(np.repeat(degrees >= 2, degrees))[slot] - 1
        self.csr_order = np.empty(self.n_pins, dtype=np.int32)
        self.csr_order[csr_rank] = np.arange(self.n_pins, dtype=np.int32)
        self.csr_cell = self.cell[self.csr_order]
        #: The strips, in layout order.
        self.strips = [
            _Strip(self, pieces[lo:hi], tail_starts, tail_degrees)
            for lo, hi in zip(cuts[:-1], cuts[1:])
            if hi > lo
        ]

    # ------------------------------------------------------------------
    def to_design_nets(self, nets: np.ndarray) -> np.ndarray:
        """Net array in design net order, 0 at nets of fewer than 2 pins."""
        if self.n_nets == 0:
            return np.zeros(nets.shape[:-1] + self.net_slot.shape, dtype=np.float64)
        out = nets.take(self.net_slot, axis=-1)
        out[..., self.dead] = 0.0
        return out

    def hpwl(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        net_weights: Optional[np.ndarray] = None,
    ) -> float:
        """(Weighted) half-perimeter wirelength of all nets."""
        span = np.empty(self.n_nets, dtype=np.float64)
        for strip in self.strips:
            (x_max, y_max), (x_min, y_min) = strip.extremes(
                strip.coords(cell_x, cell_y)
            )
            nets = np.subtract(x_max, x_min, out=span[strip.nets])
            nets += y_max
            nets -= y_min
        span = self.to_design_nets(span)
        if net_weights is not None:
            span = span * net_weights
        return float(span.sum())


def hpwl(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
    net_weights: Optional[np.ndarray] = None,
) -> float:
    """(Weighted) half-perimeter wirelength of all nets.

    Builds the design's :class:`NetLayout` for this one call; a loop keeps
    a layout (or a :class:`WAWirelength`) and calls its ``hpwl``.
    """
    return NetLayout(design).hpwl(
        design.cell_x if cell_x is None else cell_x,
        design.cell_y if cell_y is None else cell_y,
        net_weights,
    )


class WAWirelength:
    """Weighted-average wirelength with analytic gradients.

    :meth:`evaluate` returns the smooth wirelength and its gradient with
    respect to cell centers (pin offsets are rigid); :meth:`hpwl` is the
    exact metric over the same layout.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        self.layout = NetLayout(design)

    def hpwl(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        net_weights: Optional[np.ndarray] = None,
    ) -> float:
        """(Weighted) half-perimeter wirelength of all nets."""
        return self.layout.hpwl(cell_x, cell_y, net_weights)

    def evaluate(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        gamma: float,
        net_weights: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Return (smooth WL, dWL/dcell_x, dWL/dcell_y).

        Per strip, the max side (``[0]``) and the min side (``[1]``) of both
        axes run as one ``(2, 2, strip pins)`` pass; the min side divides by
        ``-gamma``, so that ``exp((min - x) / gamma)`` and
        ``1 - (x - WA-) / gamma`` come out of the same expressions as their
        max-side twins (negation commutes with rounding: the bits are those
        of the textbook form).  Work arrays are allocated per strip and
        reused in place: holding them on the object buys no time and costs
        their size in resident memory.
        """
        lay = self.layout
        scale = np.array([gamma, -gamma], dtype=np.float64)[:, None, None]
        weight = None if net_weights is None else np.take(net_weights, lay.net)
        span = np.empty((2, lay.n_nets), dtype=np.float64)
        grad = np.empty((2, lay.n_pins), dtype=np.float64)
        for strip in lay.strips:
            coord = strip.coords(cell_x, cell_y)
            # a = exp((x - max) / gamma) | exp((min - x) / gamma)
            a = strip.spread(
                np.subtract,
                coord,
                strip.extremes(coord),
                np.empty((2,) + coord.shape, dtype=np.float64),
            )
            a /= scale
            np.exp(a, out=a)
            b = strip.reduce(np.add, a)
            tmp = coord * a
            wa = strip.reduce(np.add, tmp)
            wa /= b
            nets = np.subtract(wa[0], wa[1], out=span[:, strip.nets])

            # dWL/dpin = (a+/b+)(1 + (x - WA+)/gamma) - (a-/b-)(1 - (x - WA-)/gamma)
            strip.spread(np.divide, a, b, a)
            strip.spread(np.subtract, coord, wa, tmp)
            tmp /= scale
            tmp += 1.0
            a *= tmp
            pins = np.subtract(a[0], a[1], out=grad[:, strip.pins])
            if weight is not None:
                nets *= weight[strip.nets]
                strip.spread(np.multiply, pins, weight[strip.nets], pins)
            # Freed before the next strip allocates, which then reuses
            # their (cache-warm) memory.
            del coord, a, tmp
        span = np.sum(lay.to_design_nets(span), axis=1)
        grad = grad.take(lay.csr_order, axis=1)
        return (
            float(span[0]) + float(span[1]),
            scatter_add(lay.csr_cell, grad[0], lay.n_cells),
            scatter_add(lay.csr_cell, grad[1], lay.n_cells),
        )
