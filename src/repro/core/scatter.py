"""Deterministic scatter-add - the shared ``np.add.at`` replacement.

Scatter-adds (accumulating duplicate-index contributions) appear in the
gradient paths that stay in NumPy: the density splat and the smoothing
helpers.  Ad-hoc ``np.add.at`` call sites made each one a private
reimplementation of the determinism contract, and ``ufunc.at`` is several
times slower than necessary.  This module is the single audited
implementation, and the ``no-scatter-add-at`` reprolint rule
(``repro.analysis``) bans new ``np.add.at`` call sites.

:func:`scatter_add` (the output starts at zero) lowers onto a single
:func:`np.bincount` call, which sums each bin's contributions in input
order before one vectorised add.  Per destination slot both primitives
fold contributions left-to-right in input order, and a fresh fold starts
from ``0.0`` with ``0.0 + x == x`` exact, so the bincount result is
*bitwise identical* to ``np.add.at`` into zeros
(``benchmarks/bench_scatter.py`` times the two).  The compiled kernels
(``sweep.c``, ``wirelength.c``) scatter in the same order themselves.

``ufunc.at`` has two inner paths: an indexed loop (one C loop over the
index array) and a buffered one that casts and dispatches element by
element, 7x slower at 300 elements and 25x at 5000.  It takes the
indexed loop only when the dtype *descriptors* of target and values are
the same object - a pointer compare, not ``==``.  Arrays NumPy creates
share one float64 singleton, but ``pickle`` rebuilds each array's
descriptor as a fresh object (``np.load`` does not), and arithmetic
hands that object on to its results.  So everything computed from a
design that came through the bundle cache, a worker pipe or a
checkpoint would run buffered.  :func:`same_descr` closes that: the one
``ufunc.at`` site left (``smoothing.segment_max``) passes values as a
zero-copy view carrying the target's own descriptor.

The equivalences are asserted bit-for-bit in ``tests/test_scatter.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["same_descr", "scatter_add"]


def scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Fresh ``(size,)`` float64 array with ``values`` summed into bins.

    Equivalent to ``out = zeros(size); np.add.at(out, index, values)``,
    bit for bit.
    """
    # bincount returns int64 when the weights array is empty.
    return np.bincount(index, weights=values, minlength=size).astype(
        np.float64, copy=False
    )


def same_descr(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` carrying the dtype object of ``out``: what ``ufunc.at``
    needs to take its indexed loop.  A zero-copy view when the two dtypes
    are equal but distinct objects (one of the arrays descends from an
    unpickled one); ``values`` itself otherwise."""
    if values.dtype is not out.dtype and values.dtype == out.dtype:
        return values.view(out.dtype)
    return values
