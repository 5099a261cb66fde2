"""Net-pass benchmark: the compiled wirelength terms vs the NumPy oracle.

Times one :meth:`WAWirelength.evaluate` and one :meth:`WAWirelength.hpwl`
per call, best of ``--repeats``, against the segmented-``reduceat``
program kept in ``tests/reference_wirelength.py``, on miniblue18 and
midiblue50 at a uniform scatter over the die; checks that the value, both
gradients and the HPWL are identical (unweighted and with random net
weights); writes ``benchmarks/results/BENCH_wirelength.json`` and appends
a ``wirelength_call`` record to the perf ledger.

Exit status is non-zero when a result differs or the speedup of an
evaluate + hpwl on any design is below ``--min-speedup`` - the CI
perf-smoke job runs this script as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_wirelength.py
        [--designs miniblue18 midiblue50] [--repeats 30] [--min-speedup 3.0]
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
from repro.place import WAWirelength  # noqa: E402
from repro.telemetry.history import append_record  # noqa: E402
from tests.reference_wirelength import ref_evaluate, ref_hpwl  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")
GAMMA = 40.0


def _identical(design, wa, x, y, weights) -> bool:
    got = wa.evaluate(x, y, GAMMA, weights)
    want = ref_evaluate(design, x, y, GAMMA, weights)
    return all(np.array_equal(a, b) for a, b in zip(got, want)) and (
        wa.hpwl(x, y, weights) == ref_hpwl(design, x, y, weights)
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
    wa = WAWirelength(design)
    sides = {
        "compiled_evaluate_s": lambda: wa.evaluate(x, y, GAMMA),
        "compiled_hpwl_s": lambda: wa.hpwl(x, y),
        "oracle_evaluate_s": lambda: ref_evaluate(design, x, y, GAMMA),
        "oracle_hpwl_s": lambda: ref_hpwl(design, x, y),
    }
    best = {key: float("inf") for key in sides}
    # Interleaved rounds: a slow stretch of a shared box hits both sides.
    for _ in range(max(1, repeats // 5)):
        for key, fn in sides.items():
            best[key] = min(best[key], _best_of(fn, 5))
    compiled = best["compiled_evaluate_s"] + best["compiled_hpwl_s"]
    oracle = best["oracle_evaluate_s"] + best["oracle_hpwl_s"]
    return {
        "design": name,
        "n_pins": int(wa.layout.n_pins),
        **best,
        "speedup": oracle / compiled if compiled > 0 else float("inf"),
        "identical": _identical(design, wa, x, y, None)
        and _identical(design, wa, x, y, rng.uniform(0.0, 3.0, design.n_nets)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=["miniblue18", "midiblue50"])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail when oracle / compiled evaluate + hpwl is below this",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)

    results = [bench_design(name, args.repeats) for name in args.designs]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_wirelength.json")
    with open(out, "w") as handle:
        json.dump(
            {"gamma": GAMMA, "repeats": args.repeats, "designs": results},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    for r in results:
        print(
            f"{r['design']} ({r['n_pins']} pins): evaluate "
            f"{r['oracle_evaluate_s'] * 1e3:.3f} -> "
            f"{r['compiled_evaluate_s'] * 1e3:.3f} ms, hpwl "
            f"{r['oracle_hpwl_s'] * 1e3:.3f} -> {r['compiled_hpwl_s'] * 1e3:.3f} ms: "
            f"{r['speedup']:.1f}x (identical={r['identical']})"
        )
    print(f"-> {out}")
    if args.history:
        append_record(
            "wirelength_call",
            {
                "speedup": min(r["speedup"] for r in results),
                **{
                    f"{key}_{r['design']}": r[key]
                    for r in results
                    for key in ("compiled_evaluate_s", "compiled_hpwl_s")
                },
            },
            gates={"speedup": "higher"},
            history_dir=args.history,
        )
        print(f"history: appended wirelength_call record under {args.history}")
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
