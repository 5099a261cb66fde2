"""Micro-benchmark: ``repro.core.scatter.scatter_add`` vs ``np.add.at``.

Times ``scatter_add`` in the two shapes its callers use (a 1-D segment
sum, and the density splat's flattened bin index) against the
``np.add.at`` call forms it replaced, asserts
the results are **bit identical**, and writes
``benchmarks/results/BENCH_scatter.json``.

A second group of cases takes the operand **from the design cache**:
``pickle`` gives every array it rebuilds a dtype object of its own, and
``ufunc.at`` leaves its indexed loop (15-26x) unless target and values
share one.  Raw ``np.maximum.at`` and the helper that wraps it
(``segment_max``) are timed on a fresh and on a pickle-round-tripped
operand, at 300 elements (one level of a miniblue timer sweep) and at
5000.

Exit is non-zero if any result differs bitwise, if the speedup falls
below ``--min-speedup`` (CI gates the geometric mean at 1.0: the helper
must never be slower overall), or if a helper on a round-tripped operand takes more than
``MAX_CACHED_RATIO`` times its fresh-operand time.

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

from repro.core.scatter import scatter_add
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

    # The density splat: a flattened bin index, where np.add.at took the
    # (ix, iy) pair.
    nb = 128
    ix = rng.integers(0, nb, size)
    iy = rng.integers(0, nb, size)

    def new_splat():
        return scatter_add(ix * nb + iy, values, nb * nb).reshape(nb, nb)

    def old_splat():
        out = np.zeros((nb, nb))
        np.add.at(out, (ix, iy), values)
        return out

    yield "scatter_add_splat", new_splat, old_splat


def _time_calls(fn, number: int = 200, repeat: int = 7) -> float:
    """Best per-call time of ``number`` back-to-back calls (microsecond
    kernels: one call is below the clock's useful resolution)."""

    def calls():
        for _ in range(number):
            fn()

    return _time(calls, repeat) / number


def _cached_operand_cases(rng: np.random.Generator):
    """One record per size: raw ``np.maximum.at`` and ``segment_max``, on
    a fresh operand and on one that went through ``pickle``."""
    for size in (300, 5000):
        n_out = max(size // 4, 4)
        index = rng.integers(0, n_out, size)
        fresh = rng.standard_normal(size)
        cached = pickle.loads(pickle.dumps(fresh))

        def raw_max(values):
            out = np.full(n_out, -1e30)
            np.maximum.at(out, index, values)
            return out

        def helper(values):
            return segment_max(values, index, n_out)

        identical = bool(
            np.array_equal(helper(cached), raw_max(fresh))
            and np.array_equal(helper(fresh), raw_max(fresh))
        )
        times = {
            f"{kind}_{operand}_s": _time_calls(lambda: fn(values))
            for kind, fn in (("helper", helper), ("raw", raw_max))
            for operand, values in (("fresh", fresh), ("cached", cached))
        }
        yield {
            "case": f"segment_max_{size}",
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
