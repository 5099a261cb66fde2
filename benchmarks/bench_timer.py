"""Timer-call benchmark: the compiled timer vs the NumPy glue it replaced.

Times one :meth:`DifferentiableTimer.forward` and one two-seed
:meth:`DifferentiableTimer.backward` (the placement objective's call:
``seeds=[(-1, 0), (0, -1)]``) per call, best of ``--repeats``, against
the oracle kept in ``tests/reference_timer.py`` (the Python glue around
the NumPy level kernels of ``tests/reference_sweep.py``), on miniblue18
at its seed placement and after a short global placement (the layouts
the timing term sees); checks that every tape array, TNS/WNS and both
seeds' cell gradients are identical; writes
``benchmarks/results/BENCH_timer.json`` and appends a ``timer_call``
record to the perf ledger.

Exit status is non-zero when a result differs or the speedup of a
forward + backward on any layout is below ``--min-speedup`` - the CI
perf-smoke job runs this script as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_timer.py
        [--design miniblue18] [--repeats 50] [--min-speedup 1.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core import DifferentiableTimer  # noqa: E402
from repro.harness.suite import load_design  # noqa: E402
from repro.place import GlobalPlacer, PlacerOptions  # noqa: E402
from repro.route import build_forest  # noqa: E402
from repro.telemetry.history import append_record  # noqa: E402
from tests import reference_timer  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

SEEDS = [(-1.0, 0.0), (0.0, -1.0)]
TAPE_ARRAYS = (
    "at", "slew", "cand", "d_dslew", "d_dload", "ep_slack_t", "ep_slack",
    "setup_dsetup_dslew", "tns", "wns",
)


def _identical(timer, x, y, forest) -> bool:
    got = timer.forward(x, y, forest)
    want = reference_timer.forward(timer, x, y, forest)
    same = all(
        np.array_equal(getattr(got, f), getattr(want, f)) for f in TAPE_ARRAYS
    )
    grads = timer.backward(got, seeds=SEEDS)
    ref_grads = reference_timer.backward(timer, want, seeds=SEEDS)
    return same and all(
        np.array_equal(a, b)
        for pair, ref_pair in zip(grads, ref_grads)
        for a, b in zip(pair, ref_pair)
    )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_layout(design, label: str, x, y, repeats: int) -> dict:
    timer = DifferentiableTimer(design)
    forest = build_forest(design, x, y)
    tape = timer.forward(x, y, forest)
    ref_tape = reference_timer.forward(timer, x, y, forest)
    timer.backward(tape, seeds=SEEDS)
    sides = {
        "compiled_forward_s": lambda: timer.forward(x, y, forest),
        "compiled_backward_s": lambda: timer.backward(tape, seeds=SEEDS),
        "oracle_forward_s": lambda: reference_timer.forward(timer, x, y, forest),
        "oracle_backward_s": lambda: reference_timer.backward(
            timer, ref_tape, seeds=SEEDS
        ),
    }
    best = {key: float("inf") for key in sides}
    # Interleaved rounds: a slow stretch of a shared box hits both sides.
    for _ in range(max(1, repeats // 5)):
        for key, fn in sides.items():
            best[key] = min(best[key], _best_of(fn, 5))
    compiled = best["compiled_forward_s"] + best["compiled_backward_s"]
    oracle = best["oracle_forward_s"] + best["oracle_backward_s"]
    return {
        "layout": label,
        "n_nodes": int(forest.n_nodes),
        "n_contribs": int(timer.plan.n_contribs),
        **best,
        "speedup": oracle / compiled if compiled > 0 else float("inf"),
        "identical": _identical(timer, x, y, forest),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="miniblue18")
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--placer-iters", type=int, default=300)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when oracle / compiled forward + backward is below this",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)

    design = load_design(args.design)
    placed = GlobalPlacer(
        design, PlacerOptions(seed=0, max_iters=args.placer_iters)
    ).run()
    results = [
        bench_layout(design, "seed", design.cell_x, design.cell_y, args.repeats),
        bench_layout(design, "placed", placed.x, placed.y, args.repeats),
    ]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_timer.json")
    with open(out, "w") as handle:
        json.dump(
            {"design": args.design, "repeats": args.repeats, "layouts": results},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    for r in results:
        print(
            f"{args.design}/{r['layout']}: forward {r['oracle_forward_s'] * 1e3:.3f}"
            f" -> {r['compiled_forward_s'] * 1e3:.3f} ms, two-seed backward "
            f"{r['oracle_backward_s'] * 1e3:.3f} -> "
            f"{r['compiled_backward_s'] * 1e3:.3f} ms: {r['speedup']:.1f}x "
            f"(identical={r['identical']})"
        )
    print(f"-> {out}")
    if args.history:
        placed_row = results[-1]
        append_record(
            "timer_call",
            {
                "speedup": placed_row["speedup"],
                "compiled_forward_s": placed_row["compiled_forward_s"],
                "compiled_backward_s": placed_row["compiled_backward_s"],
                "speedup_seed": results[0]["speedup"],
            },
            gates={"speedup": "higher"},
            history_dir=args.history,
        )
        print(f"history: appended timer_call record under {args.history}")
    status = 0
    for r in results:
        if not r["identical"]:
            print(f"FAIL: {r['layout']}: results differ from the oracle")
            status = 1
        if r["speedup"] < args.min_speedup:
            print(
                f"FAIL: {r['layout']}: speedup {r['speedup']:.2f}x below "
                f"required {args.min_speedup:.2f}x"
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
