"""Batched NLDM lookup-table kernels.

A :class:`LutBank` packs many :class:`~repro.netlist.lut.LUT` objects into
padded arrays so that a heterogeneous batch of queries (each query naming
its own table) is answered with a handful of vectorised NumPy operations.
Both the golden STA and the differentiable timer use the same bank; the
gradient path implements the LUT-interpolation derivative of Figure 6 of
the paper.

A lookup is split by how often its inputs change.  Which tables a batch
reads is fixed for a timing graph: :meth:`LutBank.bind` derives from the
ids, once, the flat offsets into ``values`` and whether the batch shares
one breakpoint axis per dimension (then a query is located by a single
``searchsorted``; else by a per-table compare-and-count).  The load (y)
coordinate of every cell arc is known before a timer sweep starts:
:meth:`LutBank.locate_load` places the whole graph's queries on the load
axis once per call.  Only the slew (x) coordinate arrives level by level:
:meth:`LutBank.interpolate` locates it and blends the four corners.
:meth:`LutBank.lookup` / :meth:`LutBank.lookup_with_grad` are the two
phases back to back for one-off queries.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..netlist.lut import LUT

__all__ = ["LutBank", "LutQuery", "LoadSide"]


def _pad_axis(axis: np.ndarray) -> np.ndarray:
    """Ensure an index axis has length >= 2 (constants become flat ramps)."""
    if len(axis) >= 2:
        return axis
    return np.array([axis[0], axis[0] + 1.0])


class LutQuery(NamedTuple):
    """A batch of table ids bound to a bank (:meth:`LutBank.bind`).

    Everything here follows from the ids alone, so a timing graph builds
    it once.  ``x_axis`` / ``y_axis`` name the one breakpoint axis all
    tables of the batch share along that dimension, or are ``-1`` when
    they differ.
    """

    ids: np.ndarray
    offset: np.ndarray  # int32, flat position of each table in ``values``
    x_axis: int
    y_axis: int


class LoadSide(NamedTuple):
    """The load (y) half of a batch of lookups (:meth:`LutBank.locate_load`)."""

    corner: np.ndarray  # flat position in ``values`` of the (0, j) corner
    ty: np.ndarray  # (y - y0) / dy
    dy: np.ndarray  # y1 - y0

    def at(self, index) -> "LoadSide":
        """The same for a slice (or gather) of the batch's last axis."""
        return LoadSide(*(a[..., index] for a in self))


class _Axes(NamedTuple):
    """Breakpoints of one table dimension, in the forms the locators read."""

    padded: np.ndarray  # (n_tables, n) breakpoints, +inf padded
    by_point: np.ndarray  # its transpose, contiguous
    last_cell: np.ndarray  # (n_tables,) index of each table's last cell
    of_table: np.ndarray  # (n_tables,) id of the table's distinct axis
    #: Per distinct axis: its interior breakpoints (``searchsorted`` over
    #: them is the clamped cell index), its finite breakpoints and their
    #: successive differences.
    distinct: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _axes(padded: np.ndarray, lengths: np.ndarray) -> _Axes:
    rows, of_table = np.unique(padded, axis=0, return_inverse=True)
    distinct = []
    for row in rows:
        points = row[np.isfinite(row)]
        distinct.append((points[1:-1].copy(), points, np.diff(points)))
    return _Axes(
        padded, np.ascontiguousarray(padded.T), lengths - 2,
        of_table.reshape(-1), distinct,
    )


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

    @cached_property
    def _dims(self) -> Tuple[_Axes, _Axes]:
        """The (x, y) axis tables: derived, so dropped from the pickle."""
        self.finalize()
        return _axes(self.x, self.x_len), _axes(self.y, self.y_len)

    @cached_property
    def _corner_steps(self) -> np.ndarray:
        """Flat distance from corner ``(i, j)`` to ``(i + a, j + b)``."""
        ny = self.y.shape[1]
        return np.array([[0, 1], [ny, ny + 1]])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_dims", None)
        state.pop("_corner_steps", None)
        return state

    # ------------------------------------------------------------------
    # Per graph: bind a batch of table ids
    # ------------------------------------------------------------------
    def bind(self, ids: np.ndarray) -> LutQuery:
        """Bind a batch of table ids (see :class:`LutQuery`); the ids are
        kept as given, not copied."""
        ids = np.asarray(ids)
        cell_count = self.x.shape[1] * self.y.shape[1]
        shared = []
        for dim in self._dims:
            axis = dim.of_table[ids]
            first = int(axis.flat[0]) if axis.size else -1
            shared.append(first if axis.size and (axis == first).all() else -1)
        offset = (ids.astype(np.int64) * cell_count).astype(np.int32)
        return LutQuery(ids, offset, *shared)

    def rebind(self, query: LutQuery, index) -> LutQuery:
        """``query`` restricted to a slice or gather of its last axis.

        A slice of a batch on one axis is on that axis; a slice of a
        mixed batch may be, so it is looked at again.
        """
        ids = query.ids[..., index]
        if query.x_axis >= 0 and query.y_axis >= 0:
            return LutQuery(ids, query.offset[..., index], query.x_axis, query.y_axis)
        return self.bind(ids)

    # ------------------------------------------------------------------
    # Locating a coordinate on a table axis
    # ------------------------------------------------------------------
    def _cell(self, dim: int, ids: np.ndarray, shared: int, q: np.ndarray):
        """Boundary cell of each query along table dimension ``dim``.

        Returns the cell index (clamped into the table: out-of-range
        queries extrapolate from the boundary cell), its lower breakpoint
        and its width.  With a shared axis the results have the shape of
        ``q``; otherwise of ``ids`` broadcast against ``q``.
        """
        axes = self._dims[dim]
        if shared >= 0:
            interior, points, widths = axes.distinct[shared]
            i = interior.searchsorted(q, side="right")
            return i, points.take(i), widths.take(i)
        # Axes are padded with +inf, so the number of breakpoints <= the
        # query is the cell index + 1.  The breakpoint-major table puts
        # the short axis first, where the count reduces by whole-batch adds.
        i = np.add.reduce(axes.by_point.take(ids, axis=1) <= q, axis=0) - 1
        i = np.minimum(np.maximum(i, 0), axes.last_cell[ids])
        flat = axes.padded.reshape(-1)
        at = ids * axes.padded.shape[1] + i
        low = flat[at]
        return i, low, flat[at + 1] - low

    # ------------------------------------------------------------------
    # Per call: the load side; per level: the slew side and the blend
    # ------------------------------------------------------------------
    def locate_load(self, query: LutQuery, y: np.ndarray) -> LoadSide:
        """Place a batch of queries on the load (y) axis of their tables."""
        y = np.asarray(y, dtype=np.float64)
        j, y0, dy = self._cell(1, query.ids, query.y_axis, y)
        return LoadSide(query.offset + j, (y - y0) / dy, dy)

    def interpolate(
        self,
        query: LutQuery,
        x: np.ndarray,
        load: LoadSide,
        partials: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Bilinear lookup at slews ``x`` of queries already placed in load.

        Returns the values.  With ``partials`` - a ``(d/dx, d/dy)`` pair of
        arrays to write into - also the LUT-interpolation derivatives of
        Figure 6.  Out-of-range queries extrapolate linearly from the
        boundary cell, matching :meth:`LUT.lookup_with_grad`.  Corners are
        gathered by flat offset: ``values[ids]`` would copy a whole
        ``(nx, ny)`` block per query to read four numbers of it.
        """
        x = np.asarray(x, dtype=np.float64)
        ny = self.y.shape[1]
        i, x0, dx = self._cell(0, query.ids, query.x_axis, x)
        tx = (x - x0) / dx
        # q[a, b] is the corner (i + a, j + b).
        q = self.values.reshape(-1).take(
            np.add.outer(self._corner_steps, load.corner + i * ny)
        )
        edge = q[:, 1] - q[:, 0]
        # Two 1-D interpolations along y, then one along x.
        along_y = q[:, 0] + load.ty * edge
        dv = along_y[1] - along_y[0]
        if partials is not None:
            np.divide(dv, dx, out=partials[0])
            edge /= load.dy
            np.add(edge[0], tx * (edge[1] - edge[0]), out=partials[1])
        return along_y[0] + tx * dv

    def lookup_with_grad(
        self, ids: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-off batched bilinear lookup; returns ``(value, dv/dx, dv/dy)``.

        ``ids`` selects the table per query; ``x``/``y`` are the query
        coordinates.  ``ids``, ``x`` and ``y`` broadcast against each other
        as they are (a ``(2, k)`` id array reads two tables at the same
        ``k`` points).
        """
        query, x, y = self._one_off(ids, x, y)
        shape = np.broadcast_shapes(query.ids.shape, x.shape, y.shape)
        partials = np.empty(shape), np.empty(shape)
        value = self.interpolate(query, x, self.locate_load(query, y), partials)
        return (value, *partials)

    def lookup(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """One-off batched bilinear lookup (values only, no derivative work)."""
        query, x, y = self._one_off(ids, x, y)
        return self.interpolate(query, x, self.locate_load(query, y))

    def _one_off(self, ids, x, y):
        ids = np.asarray(ids, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rank = max(x.ndim, y.ndim)
        if ids.ndim < rank:  # line ids up with the queries' trailing axes
            ids = ids.reshape((1,) * (rank - ids.ndim) + ids.shape)
        return self.bind(ids), x, y
