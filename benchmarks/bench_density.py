"""Density-pass benchmark: the compiled density term vs the NumPy oracle.

Times one :meth:`DensityModel.evaluate` per call, best of ``--repeats``,
against the NumPy pipeline kept in ``tests/reference_density.py``, on
miniblue18 and midiblue50 at a uniform scatter over the die and the
placer's automatic grid; checks that the energy, the overflow, both
gradients, the density map and the potential are identical; writes
``benchmarks/results/BENCH_density.json`` and appends a ``density_call``
record to the perf ledger.

Exit status is non-zero when a result differs or the speedup on any
design is below ``--min-speedup`` - the CI perf-smoke job runs this
script as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_density.py
        [--designs miniblue18 midiblue50] [--repeats 50] [--min-speedup 1.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.harness.suite import load_design  # noqa: E402
from repro.place import DensityModel  # noqa: E402
from repro.place.placer import _auto_bins  # noqa: E402
from repro.telemetry.history import append_record  # noqa: E402
from tests.reference_density import DensityModel as ReferenceDensityModel  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")
FIELDS = ("grad_x", "grad_y", "density", "potential")


def _identical(got, want) -> bool:
    return (
        got.energy == want.energy
        and got.overflow == want.overflow
        and all(
            getattr(got, f).tobytes() == getattr(want, f).tobytes() for f in FIELDS
        )
    )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_design(name: str, repeats: int) -> dict:
    design = load_design(name)
    rng = np.random.default_rng(0)
    xl, yl, xh, yh = design.die
    x = rng.uniform(xl, xh, design.n_cells)
    y = rng.uniform(yl, yh, design.n_cells)
    n_bins = _auto_bins(design)
    model = DensityModel(design, n_bins)
    oracle = ReferenceDensityModel(design, n_bins)
    sides = {
        "compiled_s": lambda: model.evaluate(x, y),
        "oracle_s": lambda: oracle.evaluate(x, y),
    }
    best = {key: float("inf") for key in sides}
    # Interleaved rounds: a slow stretch of a shared box hits both sides.
    for _ in range(max(1, repeats // 5)):
        for key, fn in sides.items():
            best[key] = min(best[key], _best_of(fn, 5))
    return {
        "design": name,
        "n_cells": int(design.n_cells),
        "n_bins": n_bins,
        **best,
        "speedup": best["oracle_s"] / best["compiled_s"],
        "identical": _identical(model.evaluate(x, y), oracle.evaluate(x, y)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=["miniblue18", "midiblue50"])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when oracle / compiled evaluate is below this",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)

    results = [bench_design(name, args.repeats) for name in args.designs]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_density.json")
    with open(out, "w") as handle:
        json.dump(
            {"repeats": args.repeats, "designs": results},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    for r in results:
        print(
            f"{r['design']} ({r['n_cells']} cells, {r['n_bins']}^2 bins): evaluate "
            f"{r['oracle_s'] * 1e3:.3f} -> {r['compiled_s'] * 1e3:.3f} ms: "
            f"{r['speedup']:.1f}x (identical={r['identical']})"
        )
    print(f"-> {out}")
    if args.history:
        append_record(
            "density_call",
            {
                "speedup": min(r["speedup"] for r in results),
                **{f"compiled_s_{r['design']}": r["compiled_s"] for r in results},
            },
            gates={"speedup": "higher"},
            history_dir=args.history,
        )
        print(f"history: appended density_call record under {args.history}")
    status = 0
    for r in results:
        if not r["identical"]:
            print(f"FAIL: {r['design']}: results differ from the oracle")
            status = 1
        if r["speedup"] < args.min_speedup:
            print(
                f"FAIL: {r['design']}: speedup {r['speedup']:.2f}x below "
                f"required {args.min_speedup:.2f}x"
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
