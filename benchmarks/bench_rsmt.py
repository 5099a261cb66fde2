"""RSMT forest benchmark: array-native build vs the per-net scalar reference.

Times :func:`repro.route.rsmt.build_forest` (route plan + degree-bucket
kernels writing the flat ``Forest`` directly) against flattening one
scalar :func:`repro.route.rsmt.build_rsmt` tree per net, on miniblue7
(the largest suite design, launch-bound) and midiblue50 (55k cells,
bandwidth-bound); checks that every forest array is equal; reports where
the array-native build spends its time per degree class (2 / 3 / 4..8
Steiner-searched / >8 plain RMST / flatten); writes
``benchmarks/results/BENCH_rsmt.json`` and appends an ``rsmt_forest``
record to the perf ledger.

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

from repro.harness.suite import load_design
from repro.route import MAX_STEINER_DEGREE, Forest, route_plan
from repro.route.batch import bucket_rows
from repro.route.rsmt import build_forest, build_rsmt
from repro.telemetry.history import append_record

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

FOREST_ARRAYS = (
    "parent",
    "node_net",
    "node_pin",
    "owner_x_pin",
    "owner_y_pin",
    "is_root",
    "is_steiner",
    "has_parent",
    "depth",
    "node_offset",
    "pin_node",
)
#: (label, largest bucket width of the class)
DEGREE_CLASSES = (
    ("2", 2),
    ("3", 3),
    (f"4..{MAX_STEINER_DEGREE}", MAX_STEINER_DEGREE),
    (f">{MAX_STEINER_DEGREE}", None),
)


def _forests_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, attr), getattr(b, attr)) for attr in FOREST_ARRAYS
    ) and all(np.array_equal(la, lb) for la, lb in zip(a.levels, b.levels))


def reference_forest(design, px, py):
    """One scalar ``build_rsmt`` per routable net, flattened."""
    trees = []
    for ni in range(design.n_nets):
        pins = design.net_pins(ni)
        driver = design.net_driver[ni]
        if len(pins) < 2 or driver < 0 or design.net_is_clock[ni]:
            trees.append(None)
            continue
        local = int(np.nonzero(pins == driver)[0][0])
        trees.append(build_rsmt(px[pins], py[pins], pins, driver_local=local))
    return Forest(trees, design.n_pins)


def _best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _class_split(design, px, py, repeats: int):
    """Seconds per degree class of one array-native build (best of N)."""
    plan = route_plan(design)
    split = {label: 0.0 for label, _ in DEGREE_CLASSES}
    nets, rows = [], []
    for width, bucket in plan.buckets.items():
        label = next(
            lab for lab, top in DEGREE_CLASSES if top is None or width <= top
        )
        seconds, out = _best_of(
            lambda: bucket_rows(px[bucket.pins], py[bucket.pins], *bucket[1:]),
            repeats,
        )
        split[label] += seconds
        nets.append(bucket.nets)
        rows.append(out)
    split["flatten"], _ = _best_of(
        lambda: Forest.from_rows(
            plan.n_nets,
            plan.n_pins,
            np.concatenate(nets),
            *(np.concatenate(field) for field in zip(*rows)),
        ),
        repeats,
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
    batched_s, forest = _best_of(lambda: build_forest(design, x, y), repeats)
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
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
        "forests_identical": _forests_equal(scalar_forest, forest),
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
        help="fail when array-native/scalar speedup is below this on any design",
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
            f"{label} {seconds * 1e3:.1f}" for label, seconds in r["class_split_s"].items()
        )
        print(
            f"{r['design']}: scalar {r['scalar_s'] * 1e3:.1f} ms, "
            f"array-native {r['batched_s'] * 1e3:.1f} ms -> {r['speedup']:.2f}x "
            f"(identical={r['forests_identical']})\n    ms by class: {split}"
        )
    print(f"-> {out}")
    if args.history:
        # `speedup` keeps the series the trend gate has always read (the
        # first design, miniblue7 by default); the rest ride along.
        values = {
            "speedup": results[0]["speedup"],
            "scalar_s": results[0]["scalar_s"],
            "batched_s": results[0]["batched_s"],
        }
        for r in results[1:]:
            values[f"speedup_{r['design']}"] = r["speedup"]
            values[f"batched_s_{r['design']}"] = r["batched_s"]
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
