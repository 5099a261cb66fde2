"""RSMT forest benchmark: the compiled builder vs the per-net scalar reference.

Times :func:`repro.route.rsmt.build_forest` (one call of the compiled
builder ``rsmt.c`` over the design's route plan, writing the flat
``Forest``) against flattening one scalar ``build_rsmt`` tree per net
(the oracle kept in ``tests/reference_rsmt.py``), on miniblue7 (the
largest suite design) and midiblue50 (55k cells); checks that every
forest array is equal; reports the build time per degree class (2 / 3 /
4..8 Steiner-searched / >8 plain RMST), each class routed on its own
plan, and the forest's tables (``Forest._finalize``, one compiled pass)
against the NumPy ``_finalize`` kept in the same oracle module, checked
equal; writes ``benchmarks/results/BENCH_rsmt.json`` and appends an
``rsmt_forest`` record to the perf ledger.

Exit status is non-zero when a forest differs or the speedup on any
design is below ``--min-speedup`` - the CI perf-smoke job runs this
script as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_rsmt.py
        [--designs miniblue7 midiblue50] [--repeats 3] [--min-speedup 5.0]
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
from repro.route import MAX_STEINER_DEGREE, RoutePlan  # noqa: E402
from repro.route.rsmt import build_forest, build_forest_from_plan  # noqa: E402
from repro.telemetry.history import append_record  # noqa: E402
from tests.reference_rsmt import (  # noqa: E402
    TABLES,
    reference_forest,
    reference_tables,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

FOREST_ARRAYS = (
    "parent",
    "node_pin",
    "owner_x_pin",
    "owner_y_pin",
    "is_root",
    "depth",
    "node_offset",
    "pin_node",
)
#: (label, lowest degree, highest degree) of each class
DEGREE_CLASSES = (
    ("2", 2, 2),
    ("3", 3, 3),
    (f"4..{MAX_STEINER_DEGREE}", 4, MAX_STEINER_DEGREE),
    (f">{MAX_STEINER_DEGREE}", MAX_STEINER_DEGREE + 1, None),
)


def _forests_equal(a, b) -> bool:
    arrays = [(getattr(a, attr), getattr(b, attr)) for attr in FOREST_ARRAYS]
    arrays += list(zip(a.level_tables, b.level_tables))
    return a.max_depth == b.max_depth and all(
        p.dtype == q.dtype and np.array_equal(p, q) for p, q in arrays
    )


def _tables_equal(forest, want) -> bool:
    """The compiled tables of ``forest`` equal the oracle's ``want``."""
    arrays = [(getattr(forest, name), getattr(want, name)) for name in TABLES]
    arrays += list(zip(forest.level_tables, want.level_tables))
    return forest.max_depth == want.max_depth and all(
        p.dtype == q.dtype and np.array_equal(p, q) for p, q in arrays
    )


def _best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _class_split(design, px, py, repeats: int):
    """Seconds of one compiled build per degree class (best of N), each
    class's non-clock nets routed on a plan of their own."""
    degrees = design.net_degrees
    split = {}
    for label, low, high in DEGREE_CLASSES:
        nets = (degrees >= low) & ~design.net_is_clock
        if high is not None:
            nets &= degrees <= high
        plan = RoutePlan(design, nets)
        split[label], _ = _best_of(
            lambda: build_forest_from_plan(plan, px, py), repeats
        )
    return split


def bench_design(name: str, seed: int, repeats: int) -> dict:
    design = load_design(name)
    rng = np.random.default_rng(seed)
    xl, yl, xh, yh = design.die
    x = rng.uniform(xl, xh, design.n_cells)
    y = rng.uniform(yl, yh, design.n_cells)
    px, py = design.pin_positions(x, y)

    build_forest(design, x, y)  # warm-up: builds the route plan once
    scalar_s, scalar_forest = _best_of(
        lambda: reference_forest(design, px, py), max(1, repeats // 3)
    )
    compiled_s, forest = _best_of(lambda: build_forest(design, x, y), repeats)
    finalize_s, _ = _best_of(forest._finalize, 5 * repeats)
    oracle_finalize_s, want = _best_of(lambda: reference_tables(forest), 5 * repeats)
    degrees = design.net_degrees
    return {
        "design": name,
        "n_nets": int(design.n_nets),
        "n_trees": int(np.count_nonzero(np.diff(forest.node_offset))),
        "n_nodes": int(forest.n_nodes),
        "degree_histogram": {
            str(d): int(c)
            for d, c in zip(*np.unique(degrees[degrees >= 2], return_counts=True))
        },
        "scalar_s": scalar_s,
        "compiled_s": compiled_s,
        "speedup": scalar_s / compiled_s if compiled_s > 0 else float("inf"),
        "forests_identical": _forests_equal(scalar_forest, forest)
        and _tables_equal(forest, want),
        "finalize_s": finalize_s,
        "oracle_finalize_s": oracle_finalize_s,
        "class_split_s": _class_split(design, px, py, repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=["miniblue7", "midiblue50"])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail when the compiled/scalar speedup is below this on any design",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--history",
        default=HISTORY_DIR,
        help="perf-ledger directory for `trend` (empty string disables)",
    )
    args = parser.parse_args(argv)

    results = [bench_design(name, args.seed, args.repeats) for name in args.designs]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_rsmt.json")
    with open(out, "w") as handle:
        json.dump({"repeats": args.repeats, "designs": results}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for r in results:
        split = "  ".join(
            f"{label} {seconds * 1e3:.2f}" for label, seconds in r["class_split_s"].items()
        )
        print(
            f"{r['design']}: scalar {r['scalar_s'] * 1e3:.1f} ms, "
            f"compiled {r['compiled_s'] * 1e3:.2f} ms -> {r['speedup']:.1f}x "
            f"(identical={r['forests_identical']})\n    ms by class: {split}\n"
            f"    tables (_finalize): NumPy {r['oracle_finalize_s'] * 1e3:.2f} ms, "
            f"compiled {r['finalize_s'] * 1e3:.2f} ms"
        )
    print(f"-> {out}")
    if args.history:
        # `speedup` keeps the series the trend gate has always read (the
        # first design, miniblue7 by default); the rest ride along.
        values = {
            "speedup": results[0]["speedup"],
            "scalar_s": results[0]["scalar_s"],
            "compiled_s": results[0]["compiled_s"],
        }
        for r in results[1:]:
            values[f"speedup_{r['design']}"] = r["speedup"]
            values[f"compiled_s_{r['design']}"] = r["compiled_s"]
        append_record(
            "rsmt_forest",
            values,
            gates={"speedup": "higher"},
            history_dir=args.history,
        )
        print(f"history: appended rsmt_forest record under {args.history}")
    status = 0
    for r in results:
        if not r["forests_identical"]:
            print(f"FAIL: {r['design']}: forest differs from the scalar reference")
            status = 1
        if r["speedup"] < args.min_speedup:
            print(
                f"FAIL: {r['design']}: speedup {r['speedup']:.2f}x below required "
                f"{args.min_speedup:.2f}x"
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
