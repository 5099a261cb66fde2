"""Micro-benchmark: repro.core.scatter helpers vs the old ``np.add.at``.

For each scatter shape the library actually uses (1-D pin->cell
gradient gather, 2-D density splats, row scatters onto ``(n, 2)``
rise/fall tables, and in-place accumulation for the levelised Elmore
sweeps), times ``repro.core.scatter`` against the equivalent
``np.add.at`` call form it replaced, asserts the results are **bit
identical**, and writes ``benchmarks/results/BENCH_scatter.json``.

A second group of cases takes the operand **from the design cache**:
``pickle`` gives every array it rebuilds a dtype object of its own, and
``ufunc.at`` leaves its indexed loop (15-26x) unless target and values
share one.  Raw ``np.add.at`` / ``np.maximum.at`` and the two helpers
that wrap them (``scatter_accumulate``, ``segment_max``) are timed on a
fresh and on a pickle-round-tripped operand, at 300 elements (one level
of a miniblue timer sweep) and at 5000.

Exit is non-zero if any result differs bitwise, if the geometric-mean
speedup falls below ``--min-speedup`` (CI gates at 1.0: the helpers must
never be slower overall), or if a helper on a round-tripped operand takes
more than ``MAX_CACHED_RATIO`` times its fresh-operand time.

Usage::

    PYTHONPATH=src python benchmarks/bench_scatter.py
        [--size 200000] [--repeat 5] [--min-speedup 1.0]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

import numpy as np

from repro.core.scatter import (
    scatter_accumulate,
    scatter_accumulate_at,
    scatter_add,
    scatter_add_2d,
    scatter_add_rows,
)
from repro.core.smoothing import segment_max

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: A helper on a pickle-round-tripped operand may take at most this many
#: times its fresh-operand time: on the indexed loop the ratio is ~1
#: (1.0-1.25 measured: the view itself at 300 elements), off it 5-30.
MAX_CACHED_RATIO = 1.5


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cases(size: int, rng: np.random.Generator):
    """(name, new_fn, old_fn) triples; each fn returns the result array."""
    n_out = max(size // 8, 4)
    index = rng.integers(0, n_out, size)
    values = rng.standard_normal(size)

    def new_1d():
        return scatter_add(index, values, n_out)

    def old_1d():
        out = np.zeros(n_out)
        np.add.at(out, index, values)
        return out

    yield "scatter_add_1d", new_1d, old_1d

    nb = 128
    ix = rng.integers(0, nb, size)
    iy = rng.integers(0, nb, size)

    def new_2d():
        return scatter_add_2d(ix, iy, values, (nb, nb))

    def old_2d():
        out = np.zeros((nb, nb))
        np.add.at(out, (ix, iy), values)
        return out

    yield "scatter_add_2d", new_2d, old_2d

    rows = rng.integers(0, n_out, size)
    row_vals = rng.standard_normal((size, 2))

    def new_rows():
        return scatter_add_rows(rows, row_vals, n_out)

    def old_rows():
        out = np.zeros((n_out, 2))
        np.add.at(out, rows, row_vals)
        return out

    yield "scatter_add_rows", new_rows, old_rows

    base = rng.standard_normal(n_out)

    def new_acc():
        out = base.copy()
        scatter_accumulate(out, index, values)
        return out

    def old_acc():
        out = base.copy()
        np.add.at(out, index, values)
        return out

    yield "scatter_accumulate_dense", new_acc, old_acc

    # Sparse accumulation: few touched slots in a large array, the
    # per-level shape of the Elmore sweeps.
    k = max(size // 64, 2)
    sparse_idx = rng.integers(0, n_out, k)
    sparse_vals = rng.standard_normal(k)

    def new_sparse():
        out = base.copy()
        scatter_accumulate(out, sparse_idx, sparse_vals)
        return out

    def old_sparse():
        out = base.copy()
        np.add.at(out, sparse_idx, sparse_vals)
        return out

    yield "scatter_accumulate_sparse", new_sparse, old_sparse

    cols = rng.integers(0, 2, size)
    table = rng.standard_normal((n_out, 2))

    def new_pairs():
        out = table.copy()
        scatter_accumulate_at(out, rows, cols, values)
        return out

    def old_pairs():
        out = table.copy()
        np.add.at(out, (rows, cols), values)
        return out

    yield "scatter_accumulate_at", new_pairs, old_pairs


def _time_calls(fn, number: int = 200, repeat: int = 7) -> float:
    """Best per-call time of ``number`` back-to-back calls (microsecond
    kernels: one call is below the clock's useful resolution)."""

    def calls():
        for _ in range(number):
            fn()

    return _time(calls, repeat) / number


def _cached_operand_cases(rng: np.random.Generator):
    """One record per (kernel, size): raw ``ufunc.at`` and the helper, on
    a fresh operand and on one that went through ``pickle``."""
    for size in (300, 5000):
        n_out = max(size // 4, 4)
        index = rng.integers(0, n_out, size)
        fresh = rng.standard_normal(size)
        cached = pickle.loads(pickle.dumps(fresh))
        base = rng.standard_normal(n_out)

        def raw_add(values):
            out = base.copy()
            np.add.at(out, index, values)
            return out

        def raw_max(values):
            out = np.full(n_out, -1e30)
            np.maximum.at(out, index, values)
            return out

        kernels = (
            (
                "scatter_accumulate",
                lambda v: scatter_accumulate(base.copy(), index, v),
                raw_add,
            ),
            ("segment_max", lambda v: segment_max(v, index, n_out), raw_max),
        )
        for name, helper, raw in kernels:
            identical = bool(
                np.array_equal(helper(cached), raw(fresh))
                and np.array_equal(helper(fresh), raw(fresh))
            )
            times = {
                f"{kind}_{operand}_s": _time_calls(lambda: fn(values))
                for kind, fn in (("helper", helper), ("raw", raw))
                for operand, values in (("fresh", fresh), ("cached", cached))
            }
            yield {
                "case": f"{name}_{size}",
                "size": size,
                **times,
                "helper_cached_over_fresh": (
                    times["helper_cached_s"] / times["helper_fresh_s"]
                ),
                "raw_cached_over_fresh": times["raw_cached_s"] / times["raw_fresh_s"],
                "bit_identical": identical,
            }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=200_000)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    cases = []
    all_identical = True
    for name, new_fn, old_fn in _cases(args.size, rng):
        identical = bool(np.array_equal(new_fn(), old_fn()))
        all_identical &= identical
        new_s = _time(new_fn, args.repeat)
        old_s = _time(old_fn, args.repeat)
        speedup = old_s / new_s if new_s > 0 else float("inf")
        cases.append(
            {
                "case": name,
                "helper_s": new_s,
                "add_at_s": old_s,
                "speedup": speedup,
                "bit_identical": identical,
            }
        )
        print(
            f"{name:28s} helper {new_s * 1e3:8.3f} ms   "
            f"np.add.at {old_s * 1e3:8.3f} ms   {speedup:6.2f}x   "
            f"{'bit-identical' if identical else 'MISMATCH'}"
        )

    geomean = float(np.exp(np.mean([np.log(c["speedup"]) for c in cases])))
    print(f"{'geomean':28s} {geomean:44.2f}x")

    print("operand from the design cache (pickle round trip), us per call:")
    cached_cases = list(_cached_operand_cases(rng))
    for c in cached_cases:
        all_identical &= c["bit_identical"]
        print(
            f"{c['case']:28s} helper {c['helper_fresh_s'] * 1e6:7.2f} ->"
            f" {c['helper_cached_s'] * 1e6:7.2f} "
            f"({c['helper_cached_over_fresh']:5.2f}x)   raw ufunc.at "
            f"{c['raw_fresh_s'] * 1e6:7.2f} -> {c['raw_cached_s'] * 1e6:7.2f} "
            f"({c['raw_cached_over_fresh']:5.2f}x)"
        )
    worst_cached = max(c["helper_cached_over_fresh"] for c in cached_cases)

    payload = {
        "size": args.size,
        "repeat": args.repeat,
        "seed": args.seed,
        "cases": cases,
        "geomean_speedup": geomean,
        "cached_operand_cases": cached_cases,
        "worst_helper_cached_over_fresh": worst_cached,
        "all_bit_identical": all_identical,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "BENCH_scatter.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}")

    if not all_identical:
        print("FAIL: scatter helpers are not bit-identical to np.add.at")
        return 1
    if worst_cached > MAX_CACHED_RATIO:
        print(
            f"FAIL: a helper is {worst_cached:.2f}x slower on a pickle-"
            f"round-tripped operand (limit {MAX_CACHED_RATIO:g}x): "
            f"ufunc.at left its indexed loop"
        )
        return 1
    if args.min_speedup is not None and geomean < args.min_speedup:
        print(
            f"FAIL: geomean speedup {geomean:.2f}x below "
            f"--min-speedup {args.min_speedup:g}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
