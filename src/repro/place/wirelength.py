"""Wirelength objectives: exact HPWL and the weighted-average (WA) model.

HPWL is the reporting metric (Table 3 of the paper).  The optimizer uses
the smooth weighted-average wirelength of DREAMPlace, whose per-net maximum
is ``WA+ = sum(x * exp(x / gamma)) / sum(exp(x / gamma))`` with the closed-
form gradient ``dWA+/dx_j = (a_j / b)(1 + (x_j - WA+) / gamma)``.

Both run in the compiled net pass ``wirelength.c`` (built by
:mod:`repro.core.cbuild`) over a :class:`NetLayout`, the design's nets of
at least two pins as one CSR.  HPWL is one C pass writing each net's
span.  A WA evaluation is a C pre-pass (pin coordinates, each net's
extremes and the exponents), one ``np.exp`` and a C post-pass (the per-net
sums, ``WA+-``, the spans and the pin gradients, added into their cells).
Nets of fewer than two pins are not in the layout: they contribute exactly
0 to value, gradient and HPWL.  Results are bit for bit those of the
segmented-``reduceat`` program kept as the oracle in
``tests/reference_wirelength.py``; ``exp`` stays NumPy's, whose vectorised
loop rounds differently from the C library's.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.cbuild import load_kernels
from ..netlist.design import Design

__all__ = ["hpwl", "NetLayout", "WAWirelength"]

ffi, lib = load_kernels()


def _doubles(array: np.ndarray):
    return ffi.from_buffer("double[]", array)


class NetLayout:
    """The nets of >= 2 pins of a design as one CSR, in design net order,
    and the C view of it (built once, pointing into its arrays)."""

    def __init__(self, design: Design) -> None:
        degrees = design.net_degrees
        live = np.nonzero(degrees >= 2)[0]
        count = degrees[live]
        #: First pin of each net, and the end of the last.
        self.start = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(count, out=self.start[1:])
        self.n_pins = int(self.start[-1])
        slot = np.repeat(design.net2pin_start[live] - self.start[:-1], count)
        pin = design.net2pin[slot + np.arange(self.n_pins)]
        #: Design net id of each net, and the cell of each pin.
        self.net = live.astype(np.int32)
        self.cell = design.pin2cell[pin].astype(np.int32)
        #: Pin offsets from the cell center, rows x and y.
        self.offset = np.stack([design.pin_offset_x[pin], design.pin_offset_y[pin]])
        self.n_cells, self.n_design_nets = design.n_cells, design.n_nets
        self._keep = [
            ffi.from_buffer("int64_t[]", self.start),
            ffi.from_buffer("int32_t[]", self.cell),
            _doubles(self.offset[0]),
            _doubles(self.offset[1]),
            ffi.from_buffer("int32_t[]", self.net),
        ]
        self.csr = csr = ffi.new("net_csr_t *")
        csr.n_nets, csr.n_pins, csr.n_design_nets = len(live), self.n_pins, design.n_nets
        csr.start, csr.cell, csr.offset_x, csr.offset_y, csr.net = self._keep

    def operands(self, cell_x, cell_y, net_weights=None):
        """``cell_x``, ``cell_y`` and ``net_weights`` as the C passes read
        them: contiguous float64, one value per cell (per design net).
        Raises ``ValueError`` on any other length."""
        cell_x = np.ascontiguousarray(cell_x, dtype=np.float64)
        cell_y = np.ascontiguousarray(cell_y, dtype=np.float64)
        if net_weights is not None:
            net_weights = np.ascontiguousarray(net_weights, dtype=np.float64)
        if (
            cell_x.shape != (self.n_cells,)
            or cell_y.shape != (self.n_cells,)
            or (net_weights is not None and net_weights.shape != (self.n_design_nets,))
        ):
            raise ValueError(
                f"cell coordinates of shape {cell_x.shape} / {cell_y.shape} and "
                f"net weights of shape {getattr(net_weights, 'shape', None)} for "
                f"a design of {self.n_cells} cells and {self.n_design_nets} nets"
            )
        return cell_x, cell_y, net_weights

    def hpwl(
        self,
        cell_x: np.ndarray,
        cell_y: np.ndarray,
        net_weights: Optional[np.ndarray] = None,
    ) -> float:
        """(Weighted) half-perimeter wirelength of all nets."""
        cell_x, cell_y, _ = self.operands(cell_x, cell_y)
        span = np.zeros(self.n_design_nets)
        lib.wl_spans(self.csr, _doubles(cell_x), _doubles(cell_y), _doubles(span))
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

        The exponents ``(x - max) / gamma`` and ``(min - x) / gamma`` of
        both axes are one ``(4, n_pins)`` block for NumPy's ``exp``; the
        per-net values come back in design net order (0 at nets of fewer
        than two pins) and are summed by NumPy, one row per axis.
        """
        lay = self.layout
        cell_x, cell_y, net_weights = lay.operands(cell_x, cell_y, net_weights)
        work = np.empty((6, lay.n_pins))
        pointer = _doubles(work)
        lib.wa_exponents(lay.csr, _doubles(cell_x), _doubles(cell_y), gamma, pointer)
        np.exp(work[2:], out=work[2:])
        span = np.zeros((2, lay.n_design_nets))
        grad_x, grad_y = np.zeros(lay.n_cells), np.zeros(lay.n_cells)
        lib.wa_gradient(
            lay.csr, pointer, gamma,
            ffi.NULL if net_weights is None else _doubles(net_weights),
            _doubles(span), _doubles(grad_x), _doubles(grad_y),
        )
        span = span.sum(axis=1)
        return float(span[0]) + float(span[1]), grad_x, grad_y
