"""Batched NLDM lookup-table kernels.

A :class:`LutBank` packs many :class:`~repro.netlist.lut.LUT` objects into
padded arrays so that a heterogeneous batch of queries (each query naming
its own table) is answered with a handful of vectorised NumPy operations.
Both the golden STA and the differentiable timer use the same bank; the
gradient path (``lookup_with_grad``) implements the LUT-interpolation
derivative of Figure 6 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..netlist.lut import LUT

__all__ = ["LutBank"]


def _pad_axis(axis: np.ndarray) -> np.ndarray:
    """Ensure an index axis has length >= 2 (constants become flat ramps)."""
    if len(axis) >= 2:
        return axis
    return np.array([axis[0], axis[0] + 1.0])


class LutBank:
    """A registry of LUTs with batched bilinear lookup.

    Use :meth:`register` to intern a LUT and obtain its integer id, then
    :meth:`finalize` once before the first lookup.  Lookups take an array of
    ids and broadcastable query arrays.
    """

    def __init__(self) -> None:
        self._luts: List[LUT] = []
        self._by_identity: Dict[int, int] = {}
        self._finalized = False
        self.x: np.ndarray
        self.y: np.ndarray
        self.values: np.ndarray
        self.x_len: np.ndarray
        self.y_len: np.ndarray

    def register(self, lut: LUT) -> int:
        """Intern a LUT (deduplicated by object identity); returns its id."""
        if self._finalized:
            raise RuntimeError("LutBank already finalized")
        key = id(lut)
        if key in self._by_identity:
            return self._by_identity[key]
        index = len(self._luts)
        self._luts.append(lut)
        self._by_identity[key] = index
        return index

    def __len__(self) -> int:
        return len(self._luts)

    def finalize(self) -> None:
        """Pack all registered LUTs into padded batch arrays."""
        if self._finalized:
            return
        self._finalized = True
        if not self._luts:
            self.x = np.zeros((0, 2))
            self.y = np.zeros((0, 2))
            self.values = np.zeros((0, 2, 2))
            self.x_len = np.zeros(0, dtype=np.int64)
            self.y_len = np.zeros(0, dtype=np.int64)
            return
        xs = [_pad_axis(lut.x) for lut in self._luts]
        ys = [_pad_axis(lut.y) for lut in self._luts]
        nx = max(len(a) for a in xs)
        ny = max(len(a) for a in ys)
        k = len(self._luts)
        self.x = np.full((k, nx), np.inf)
        self.y = np.full((k, ny), np.inf)
        self.values = np.zeros((k, nx, ny))
        self.x_len = np.zeros(k, dtype=np.int64)
        self.y_len = np.zeros(k, dtype=np.int64)
        for i, (lut, ax, ay) in enumerate(zip(self._luts, xs, ys)):
            self.x_len[i] = len(ax)
            self.y_len[i] = len(ay)
            self.x[i, : len(ax)] = ax
            self.y[i, : len(ay)] = ay
            v = lut.values
            # Duplicate rows/columns for axes that were padded from length 1.
            if v.shape[0] == 1 and len(ax) == 2:
                v = np.vstack([v, v])
            if v.shape[1] == 1 and len(ay) == 2:
                v = np.hstack([v, v])
            self.values[i, : v.shape[0], : v.shape[1]] = v

    def _locate(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Find each query's boundary cell.

        Returns ``x``/``y`` as arrays, the flat position of the cell's
        ``(i, j)`` corner in ``values`` (the other three corners sit at
        ``+1``, ``+ny`` and ``+ny+1``), and the axis breakpoints ``x0, x1,
        y0, y1`` bracketing (or, out of range, nearest to) the query.
        ``ids``, ``x`` and ``y`` broadcast against each other as they are
        (a ``(2, k)`` id array reads two tables at the same ``k`` points).
        Corners are gathered by flat offset: ``values[ids]`` would copy a
        whole ``(nx, ny)`` block per query to read four numbers of it.
        """
        if not self._finalized:
            self.finalize()
        ids = np.asarray(ids, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rank = max(x.ndim, y.ndim)
        if ids.ndim < rank:  # line ids up with the queries' trailing axes
            ids = ids.reshape((1,) * (rank - ids.ndim) + ids.shape)
        nx, ny = self.x.shape[1], self.y.shape[1]
        # Breakpoint-major copies of the axis tables: gathering a query
        # batch from them puts the short axis first, where the count below
        # reduces by whole-batch adds.  Derived lazily, so banks pickled
        # before the copies existed still load.
        axes_t = getattr(self, "_axes_t", None)
        if axes_t is None:
            axes_t = self._axes_t = (
                np.ascontiguousarray(self.x.T), np.ascontiguousarray(self.y.T)
            )
        # Axes are padded with +inf, so the number of breakpoints <= the
        # query is the cell index + 1; clamping it to the last cell
        # extrapolates from the boundary cell.
        i = np.add.reduce(axes_t[0].take(ids, axis=1) <= x, axis=0) - 1
        j = np.add.reduce(axes_t[1].take(ids, axis=1) <= y, axis=0) - 1
        bx = ids * nx + np.minimum(np.maximum(i, 0), self.x_len[ids] - 2)
        j = np.minimum(np.maximum(j, 0), self.y_len[ids] - 2)
        by = ids * ny + j
        xf, yf = self.x.reshape(-1), self.y.reshape(-1)
        return x, y, bx * ny + j, xf[bx], xf[bx + 1], yf[by], yf[by + 1]

    def lookup_with_grad(
        self, ids: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched bilinear lookup; returns ``(value, dv/dx, dv/dy)``.

        ``ids`` selects the table per query; ``x``/``y`` are the query
        coordinates.  Out-of-range queries extrapolate linearly from the
        boundary cell, matching :meth:`LUT.lookup_with_grad`.
        """
        x, y, corner, x0, x1, y0, y1 = self._locate(ids, x, y)
        ny = self.y.shape[1]
        vf = self.values.reshape(-1)
        q00 = vf[corner]
        q10 = vf[corner + ny]
        dx = x1 - x0
        dy = y1 - y0
        tx = (x - x0) / dx
        ty = (y - y0) / dy
        e0 = vf[corner + 1] - q00
        e1 = vf[corner + (ny + 1)] - q10
        # Two 1-D interpolations along y, then one along x.
        v0 = q00 + ty * e0
        dv = (q10 + ty * e1) - v0
        d0 = e0 / dy
        return v0 + tx * dv, dv / dx, d0 + tx * (e1 / dy - d0)

    def lookup(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Batched bilinear lookup (values only, no derivative work)."""
        x, y, corner, x0, x1, y0, y1 = self._locate(ids, x, y)
        ny = self.y.shape[1]
        vf = self.values.reshape(-1)
        q00 = vf[corner]
        q10 = vf[corner + ny]
        ty = (y - y0) / (y1 - y0)
        v0 = q00 + ty * (vf[corner + 1] - q00)
        v1 = q10 + ty * (vf[corner + (ny + 1)] - q10)
        return v0 + (x - x0) / (x1 - x0) * (v1 - v0)
