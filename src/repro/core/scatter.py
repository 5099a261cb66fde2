"""Deterministic scatter-add kernels - the shared ``np.add.at`` replacement.

Scatter-adds (accumulating duplicate-index contributions) appear in every
gradient hot path of the placer: pin->cell gradient gathers, density
splats, rise/fall table updates, and the levelised Elmore sweeps.  Ad-hoc
``np.add.at`` call sites made each one a private reimplementation of the
determinism contract, and the tuple-indexed / broadcast forms of
``ufunc.at`` are several times slower than necessary.  This module is the
single audited implementation, and the ``no-scatter-add-at`` reprolint
rule (``repro.analysis``) bans new ``np.add.at`` call sites outside it.

Two lowering strategies, chosen by what the caller needs
(``benchmarks/bench_scatter.py`` measures both against the ``np.add.at``
forms they replaced):

- **Materializing scatters** (``scatter_add*``: the output starts at
  zero) lower onto a single :func:`np.bincount` call, which sums each
  bin's contributions in input order before one vectorised add.  Per
  destination slot both primitives fold contributions left-to-right in
  input order, and a fresh fold starts from ``0.0`` with ``0.0 + x == x``
  exact, so the bincount result is *bitwise identical* to ``np.add.at``
  into zeros - while 2-4x faster for the 2-D and row-scatter shapes.
- **In-place accumulation** (``scatter_accumulate*``: adding into an
  existing, generally non-zero array) flattens the target and indices
  row-major and applies the 1-D contiguous fast path of ``np.add.at``
  itself - trivially bit-identical, and the fastest primitive at every
  update density (a bincount rebuild would cost O(n) per call, which the
  per-level Elmore sweeps cannot afford) *provided numpy takes its
  indexed loop*, see below.  Flattening preserves the element order of
  the tuple-indexed form, so per-slot fold order is unchanged; it merely
  bypasses numpy's slow multi-dimensional ``ufunc.at`` dispatch.

``ufunc.at`` has two inner paths: an indexed loop (one C loop over the
index array) and a buffered one that casts and dispatches element by
element, 7x slower at 300 elements and 25x at 5000.  It takes the
indexed loop only when the dtype *descriptors* of target and values are
the same object - a pointer compare, not ``==``.  Arrays NumPy creates
share one float64 singleton, but ``pickle`` rebuilds each array's
descriptor as a fresh object (``np.load`` does not), and arithmetic
hands that object on to its results.  So everything computed from a
design that came through the bundle cache, a worker pipe or a
checkpoint would run buffered.
:func:`same_descr` closes that: both ``ufunc.at`` sites pass values as
a zero-copy view carrying the target's own descriptor.

The equivalences are asserted bit-for-bit in ``tests/test_scatter.py``.

2-D variants flatten ``(ix, iy)`` index pairs row-major (the
``np.ravel_multi_index`` convention) so grid scatters such as the density
splat ride the same kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORK_SET_ENTRIES",
    "flat_view",
    "same_descr",
    "scatter_add",
    "scatter_add_2d",
    "scatter_add_rows",
    "scatter_accumulate",
    "scatter_accumulate_at",
    "scatter_accumulate_rows",
]

#: float64 entries of one cache-sized working set: 2 MiB, a per-core L2.
#: Kernels whose work arrays would stream far past it run slice by slice
#: (the WA wirelength strips, the 1-Steiner candidate table blocks).
WORK_SET_ENTRIES = 1 << 18


def scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Fresh ``(size,)`` float64 array with ``values`` summed into bins.

    Equivalent to ``out = zeros(size); np.add.at(out, index, values)``,
    bit for bit.
    """
    # bincount returns int64 when the weights array is empty.
    return np.bincount(index, weights=values, minlength=size).astype(
        np.float64, copy=False
    )


def scatter_add_2d(
    ix: np.ndarray, iy: np.ndarray, values: np.ndarray, shape: tuple
) -> np.ndarray:
    """Fresh ``shape`` grid with ``values`` summed into ``(ix, iy)`` cells.

    Equivalent to ``out = zeros(shape); np.add.at(out, (ix, iy), values)``.
    """
    nx, ny = shape
    return (
        np.bincount(ix * ny + iy, weights=values, minlength=nx * ny)
        .astype(np.float64, copy=False)
        .reshape(nx, ny)
    )


def scatter_add_rows(
    rows: np.ndarray, values: np.ndarray, n_rows: int
) -> np.ndarray:
    """Fresh ``(n_rows, c)`` array accumulating the ``(k, c)`` ``values`` rows.

    Equivalent to ``out = zeros((n_rows, c)); np.add.at(out, rows, values)``
    (the row-scatter used to push per-pin gradients onto driver pins).
    """
    c = values.shape[1]
    flat = (rows[:, None] * c + np.arange(c)).ravel()
    return (
        np.bincount(flat, weights=values.ravel(), minlength=n_rows * c)
        .astype(np.float64, copy=False)
        .reshape(n_rows, c)
    )


def same_descr(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` carrying the dtype object of ``out``: what ``ufunc.at``
    needs to take its indexed loop.  A zero-copy view when the two dtypes
    are equal but distinct objects (one of the arrays descends from an
    unpickled one); ``values`` itself otherwise."""
    if values.dtype is not out.dtype and values.dtype == out.dtype:
        return values.view(out.dtype)
    return values


def flat_view(out: np.ndarray) -> np.ndarray:
    """C-contiguous flat view of ``out`` (in-place kernels mutate it)."""
    if not out.flags.c_contiguous:
        raise ValueError(
            "scatter_accumulate targets must be C-contiguous "
            "(reshape(-1) would silently copy)"
        )
    return out.reshape(-1)


def scatter_accumulate(
    out: np.ndarray, index: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """In-place ``out[index] += values`` with duplicate indices folded.

    ``out`` must be 1-D.  This is the module's one blessed ``ufunc.at``
    call: on a 1-D contiguous float64 target numpy takes its indexed
    inner loop (given operands of one dtype object, which
    :func:`same_descr` sees to), which outperforms any bincount rebuild
    of ``out`` at every update density the sweeps produce.
    """
    # reprolint: allow[no-scatter-add-at] the single audited accumulation site every converted call site routes through
    np.add.at(out, index, same_descr(out, values))
    return out


def scatter_accumulate_at(
    out: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """In-place ``np.add.at(out, (rows, cols), values)`` on a 2-D array.

    ``rows``/``cols``/``values`` broadcast against each other exactly as
    the fancy-index form does (e.g. ``rows[:, None]`` against a
    ``[[0, 1]]`` column stencil); the flattened 1-D form folds each slot
    in the same element order, several times faster.
    """
    flat, values = np.broadcast_arrays(rows * out.shape[1] + cols, values)
    scatter_accumulate(flat_view(out), flat.ravel(), values.ravel())
    return out


def scatter_accumulate_rows(
    out: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """In-place ``np.add.at(out, rows, values)`` row scatter on ``(n, c)``."""
    c = out.shape[1]
    flat = (rows[:, None] * c + np.arange(c)).ravel()
    scatter_accumulate(flat_view(out), flat, values.ravel())
    return out
