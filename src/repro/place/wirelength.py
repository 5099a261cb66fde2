"""Wirelength objectives: exact HPWL and the weighted-average (WA) model.

HPWL is the reporting metric (Table 3 of the paper).  The optimizer uses
the smooth weighted-average wirelength of DREAMPlace, whose per-net maximum
is ``WA+ = sum(x * exp(x / gamma)) / sum(exp(x / gamma))`` with the closed-
form gradient ``dWA+/dx_j = (a_j / b)(1 + (x_j - WA+) / gamma)``.

Both run over one per-design :class:`NetLayout`.  Nets of equal degree
``d`` (2 <= d <= 8, nearly all of them) form a *bucket* whose pins are
stored slot-major - a ``(d, n_d)`` block, slot ``j`` of every net
contiguous - so a per-net max/min/sum is ``d - 1`` whole-row vector ops
and spreading a per-net value over its pins is a broadcast view.  The few
larger nets follow as a ragged tail in CSR order, the only place a
segmented ``reduceat`` and an index gather remain.  Nets of fewer than two
pins have no slot: they contribute exactly 0 to value, gradient and HPWL.

Summation-order contract (results are bit-identical to one ``reduceat``
over the CSR pin list): a bucket sum is ``B[0] + ((B[1] + B[2]) + ...)``,
which is what ``add.reduceat`` computes for a segment of at most 8
elements; per-net terms return to net order before they are summed over
nets; per-pin gradients return to CSR pin order before the scatter-add, so
every cell accumulates its pins in that order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.scatter import scatter_add
from ..netlist.design import Design

__all__ = ["hpwl", "NetLayout", "WAWirelength"]

#: Largest degree that gets a bucket.  ``add.reduceat`` switches to an
#: unrolled pairwise sum from the 9th element of a segment on, which a
#: row-by-row bucket sum would not reproduce.
MAX_BUCKET_DEGREE = 8


class NetLayout:
    """Pins of all nets with >= 2 pins, degree buckets first, ragged tail last.

    A *pin array* is ``(..., n_pins)`` in layout order, a *net array*
    ``(..., n_nets)`` in layout net order (``net`` maps it to design net
    ids); leading axes stack independent problems (the x and y axis, the
    max and the min side).  Only index tables and the rigid pin offsets
    are held; work arrays are the caller's.
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

        #: ``(degree, net count, pin range, net range)`` of each bucket.
        self.buckets = []
        slots = []  # CSR position (index into net2pin) of each layout pin
        pin_lo = net_lo = 0
        counts = np.bincount(rank, minlength=MAX_BUCKET_DEGREE + 1).tolist()
        for d, n in enumerate(counts[: MAX_BUCKET_DEGREE + 1]):
            if n == 0:
                continue
            first = starts[live[net_lo : net_lo + n]]
            slots.append((first + np.arange(d)[:, None]).reshape(-1))
            self.buckets.append(
                (d, n, slice(pin_lo, pin_lo + d * n), slice(net_lo, net_lo + n))
            )
            pin_lo += d * n
            net_lo += n
        #: First pin / first net of the ragged tail.
        self.tail_pin = pin_lo
        self.tail_net = net_lo
        tail_degrees = degrees[live[net_lo:]]
        #: Segment starts of the tail nets, relative to ``tail_pin``.
        self.tail_starts = np.cumsum(tail_degrees) - tail_degrees
        #: Tail net (relative to ``tail_net``) of each tail pin.
        self.tail_pin_net = np.repeat(
            np.arange(len(tail_degrees), dtype=np.int32), tail_degrees
        )
        slots.append(
            np.repeat(starts[live[net_lo:]] - self.tail_starts, tail_degrees)
            + np.arange(int(tail_degrees.sum()))
        )
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

    # ------------------------------------------------------------------
    def _blocks(self, pins: np.ndarray):
        """``(..., d, n_d)`` view of each bucket of a pin array, with the
        bucket's net range."""
        lead = pins.shape[:-1]
        for d, n, pin_range, net_range in self.buckets:
            yield pins[..., pin_range].reshape(lead + (d, n)), net_range

    def pin_coords(self, cell_x: np.ndarray, cell_y: np.ndarray) -> np.ndarray:
        """``(2, n_pins)`` pin coordinates, one gather per axis."""
        coord = np.empty((2, self.n_pins), dtype=np.float64)
        np.add(np.take(cell_x, self.cell), self.offset[0], out=coord[0])
        np.add(np.take(cell_y, self.cell), self.offset[1], out=coord[1])
        return coord

    def reduce(
        self, ufunc, pins: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-net ``ufunc`` reduction (maximum, minimum or add) of a pin array."""
        if out is None:
            out = np.empty(pins.shape[:-1] + (self.n_nets,), dtype=np.float64)
        for block, nets in self._blocks(pins):
            if ufunc is not np.add:
                ufunc.reduce(block, axis=-2, out=out[..., nets])
            elif block.shape[-2] == 2:
                np.add(block[..., 0, :], block[..., 1, :], out=out[..., nets])
            else:
                # Slot 0 plus the left-to-right sum of the rest: the
                # order ``add.reduceat`` uses on a segment this short.
                rest = np.add.reduce(block[..., 1:, :], axis=-2)
                np.add(block[..., 0, :], rest, out=out[..., nets])
        if self.tail_net < self.n_nets:
            # reprolint: allow[no-scatter-add-at] the ragged tail: the few nets above MAX_BUCKET_DEGREE, CSR segments inside the layout
            ufunc.reduceat(
                pins[..., self.tail_pin :],
                self.tail_starts,
                axis=-1,
                out=out[..., self.tail_net :],
            )
        return out

    def spread(
        self, ufunc, pins: np.ndarray, nets: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = ufunc(pins, nets)`` with each net's value at all its pins.

        ``pins`` may lack leading axes of ``nets`` / ``out`` (broadcast).
        """
        for (block, rng), (target, _) in zip(self._blocks(pins), self._blocks(out)):
            ufunc(block, nets[..., None, rng], out=target)
        if self.tail_net < self.n_nets:
            ufunc(
                pins[..., self.tail_pin :],
                nets[..., self.tail_net :].take(self.tail_pin_net, axis=-1),
                out=out[..., self.tail_pin :],
            )
        return out

    def to_design_nets(self, nets: np.ndarray) -> np.ndarray:
        """Net array in design net order, 0 at nets of fewer than 2 pins."""
        if self.n_nets == 0:
            return np.zeros(nets.shape[:-1] + self.net_slot.shape, dtype=np.float64)
        out = nets.take(self.net_slot, axis=-1)
        out[..., self.dead] = 0.0
        return out

    def extremes(self, pins: np.ndarray) -> np.ndarray:
        """Per-net maximum (``[0]``) and minimum (``[1]``) of a pin array."""
        out = np.empty((2,) + pins.shape[:-1] + (self.n_nets,), dtype=np.float64)
        self.reduce(np.maximum, pins, out=out[0])
        self.reduce(np.minimum, pins, out=out[1])
        return out

    def hpwl(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        net_weights: Optional[np.ndarray] = None,
    ) -> float:
        """(Weighted) half-perimeter wirelength of all nets."""
        (x_max, y_max), (x_min, y_min) = self.extremes(
            self.pin_coords(cell_x, cell_y)
        )
        span = self.to_design_nets(x_max - x_min + y_max - y_min)
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

        The max side (``[0]``) and the min side (``[1]``) of both axes run
        as one ``(2, 2, n_pins)`` pass; the min side divides by ``-gamma``,
        so that ``exp((min - x) / gamma)`` and ``1 - (x - WA-) / gamma``
        come out of the same expressions as their max-side twins (negation
        commutes with rounding: the bits are those of the textbook form).
        Work arrays are allocated per call and reused in place: holding
        them on the object buys no time and costs their size in resident
        memory.
        """
        lay = self.layout
        coord = lay.pin_coords(cell_x, cell_y)
        scale = np.array([gamma, -gamma], dtype=np.float64)[:, None, None]

        # a = exp((x - max) / gamma) | exp((min - x) / gamma)
        a = lay.spread(
            np.subtract,
            coord,
            lay.extremes(coord),
            np.empty((2,) + coord.shape, dtype=np.float64),
        )
        a /= scale
        np.exp(a, out=a)
        b = lay.reduce(np.add, a)
        tmp = coord * a
        wa = lay.reduce(np.add, tmp)
        wa /= b

        span = wa[0] - wa[1]
        if net_weights is not None:
            weight = np.take(net_weights, lay.net)
            span *= weight
        span = np.sum(lay.to_design_nets(span), axis=1)

        # dWL/dpin = (a+/b+)(1 + (x - WA+)/gamma) - (a-/b-)(1 - (x - WA-)/gamma)
        lay.spread(np.divide, a, b, a)
        lay.spread(np.subtract, coord, wa, tmp)
        del coord
        tmp /= scale
        tmp += 1.0
        a *= tmp
        del tmp
        grad = np.subtract(a[0], a[1], out=a[0])
        if net_weights is not None:
            lay.spread(np.multiply, grad, weight, grad)
        grad = grad.take(lay.csr_order, axis=1)
        del a
        return (
            float(span[0]) + float(span[1]),
            scatter_add(lay.csr_cell, grad[0], lay.n_cells),
            scatter_add(lay.csr_cell, grad[1], lay.n_cells),
        )
