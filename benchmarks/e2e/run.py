#!/usr/bin/env python3
"""End-to-end benchmark of the three Table-3 flows.

Driver form (one workload, one run; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload ours_mini18 --seed 3 \\
        --seconds 20 --trace 0

Suite form (every workload, rounds interleaved, then one traced round)::

    python3 benchmarks/e2e/run.py --seed 0 [--rounds N] [--check-repeat]
        [--smoke] [--history DIR]

This process never imports ``repro``: every set-up and every round runs
in a fresh child (``child.py``), one at a time, single-threaded, and
nothing else runs next to it.  See ``README.md`` for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(ROOT, "src")
#: Script of each child role.
CHILDREN = {
    "setup": os.path.join(HERE, "coldstart.py"),
    "flows": os.path.join(HERE, "child.py"),
}
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    BY_NAME, END_TO_END, N_SETUP, PER_LAYER, RUN_SECONDS, WORKLOADS, Workload,
)

#: A child that runs longer than this is killed; the whole run must end
#: within the driver's 180 s.
CHILD_TIMEOUT_S = 150

QUALITY_METRICS = ("wns_viol_ps", "tns_viol_ps", "hpwl_um")

class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: dict) -> dict:
    """Run one child to completion and return the JSON line it printed."""
    args = dict(args, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, CHILDREN[args["role"]], json.dumps(args)],
            env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args['role']} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args['role']} child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Cache directories of one run; gone when the run is over."""
    os.makedirs(RESULTS, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-")


def _median_of_inputs(rows: Sequence[dict], key: str) -> float:
    """Median over inputs of each input's median over its repeats.

    A flow that returned was measured, whatever its checks said.
    """
    per_input: Dict[int, List[float]] = {}
    for row in rows:
        if key in row:
            per_input.setdefault(row["input"], []).append(row[key])
    return statistics.median(statistics.median(v) for v in per_input.values())


def run_once(workload: Workload, seed: int, seconds: float, smoke: bool = False) -> dict:
    """One untraced run: N cold set-ups, then one round of flows."""
    n_inputs, n_setup = (1, 1) if smoke else (workload.n_inputs, N_SETUP)
    with scratch_dir() as scratch:
        dirs = [os.path.join(scratch, f"s{i}") for i in range(n_setup)]
        setups = [
            spawn({
                "role": "setup", "workload": workload.name, "seed": seed,
                "index": i, "cache_dir": d,
            })
            for i, d in enumerate(dirs)
        ]
        result = spawn({
            "role": "flows", "workload": workload.name, "seed": seed,
            "seconds": seconds, "smoke": smoke, "trace": False,
            "n_inputs": n_inputs, "cache_dirs": dirs,
        })
    rows = result["rows"]
    finals = {r["input"]: r["quality"] for r in rows if "quality" in r}
    if len(finals) < n_inputs:
        raise BenchError("an input has no flow that returned")
    result["metrics"] = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "solve_iter_ms": _median_of_inputs(rows, "solve_iter_ms"),
        "flow_iter_ms": _median_of_inputs(rows, "flow_iter_ms"),
        "wns_viol_ps": statistics.median(-q["wns"] for q in finals.values()),
        "tns_viol_ps": statistics.median(-q["tns"] for q in finals.values()),
        "hpwl_um": statistics.median(q["hpwl"] for q in finals.values()),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # What a user sees per flow; not gated, because iterations to
    # converge differ too much from input to input (workloads.py).
    result["ungated"] = {
        "solve_s": _median_of_inputs(rows, "solve_ref_s"),
        "flow_s": _median_of_inputs(rows, "flow_ref_s"),
        "iterations": _median_of_inputs(rows, "iterations"),
        "wall_solve_s": _median_of_inputs(rows, "solve_s"),
        "wall_setup_s": statistics.median(s["wall_s"] for s in setups),
        "machine_speed": statistics.median(r["speed"] for r in rows if "speed" in r),
    }
    return result


def _fail(result: dict, message: str) -> None:
    """Record a failed check that belongs to the round, not to one flow."""
    result["failures"].append(message)
    result["failed"] = max(result["failed"], 1)


def run_traced(
    workload: Workload, seed: int, seconds: float, smoke: bool = False,
    reference_rows: Optional[List[dict]] = None,
) -> dict:
    """One traced round on input 0, against an untraced reference.

    ``reference_rows`` are untraced flows of the same input and seed
    (the suite passes its timed rounds); without them an untraced child
    runs first, for half the time.
    """
    common = {
        "workload": workload.name, "seed": seed, "smoke": smoke,
        "n_inputs": 1, "seconds": seconds / 2,
    }
    with scratch_dir() as scratch:
        if reference_rows is None:
            ref_dir = os.path.join(scratch, "ref")
            spawn(dict(common, role="setup", index=0, cache_dir=ref_dir))
            reference_rows = spawn(dict(
                common, role="flows", trace=False, cache_dirs=[ref_dir],
            ))["rows"]
        result = spawn(dict(
            common, role="flows", trace=True,
            cache_dirs=[os.path.join(scratch, "traced")],
            trace_out=os.path.join(RESULTS, f"trace_{workload.name}.json"),
        ))
    ref = [r for r in reference_rows if r["input"] == 0 and "quality" in r]
    traced = [r for r in result["rows"] if "layers" in r]
    if not ref or not traced:
        raise BenchError("no returned flow to compare the traced round with")
    if any(r["quality"] != ref[0]["quality"] for r in traced):
        _fail(result, "wrappers changed the flow's result")

    setup = result["setup_layers"]
    metrics: Dict[str, float] = {}
    for name, unit, _, _ in PER_LAYER:
        if name in setup:
            metrics[name] = setup[name]
        elif name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if unit == "count" and len(set(values)) != 1:
                _fail(result, f"{name} differs between traced flows: {values}")
            metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(r["flow_ref_s"] for r in traced)
        / statistics.median(r["flow_ref_s"] for r in ref)
        - 1.0
    )
    result["metrics"] = metrics
    return result


def units(trace: bool) -> Dict[str, str]:
    return {row[0]: row[1] for row in (PER_LAYER if trace else END_TO_END)}


def print_metrics(metrics: Dict[str, float], unit_of: Dict[str, str]) -> None:
    for name, unit in unit_of.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")


# ---------------------------------------------------------------------------
# Driver form
# ---------------------------------------------------------------------------
def main_driver(args: argparse.Namespace) -> int:
    workload = BY_NAME[args.workload]
    run = run_traced if args.trace else run_once
    result = run(workload, args.seed, args.seconds)
    unit_of = units(bool(args.trace))
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print_metrics(result["metrics"], unit_of)
    for name, value in result.get("ungated", {}).items():
        print(f"  (ungated) {name:<30} {value:>14.6g}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in unit_of.items()
        },
    }))
    return 0 if result["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Suite form
# ---------------------------------------------------------------------------
def _summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, min, quartiles and n; with n < 20 no tail is claimed."""
    out = {"median": statistics.median(values), "min": min(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_suite(seed: int, rounds: int, seconds: float, smoke: bool) -> dict:
    """Rounds interleaved across workloads, then one traced round each."""
    runs: Dict[str, List[dict]] = {w.name: [] for w in WORKLOADS}
    for r in range(rounds):
        # Round-robin, so a slow drift of the shared machine hits every
        # workload alike.
        for w in WORKLOADS:
            print(f"round {r + 1}/{rounds} {w.name} ...", flush=True)
            runs[w.name].append(run_once(w, seed, seconds, smoke))
    out: Dict[str, dict] = {}
    for w in WORKLOADS:
        print(f"traced round {w.name} ...", flush=True)
        mine = runs[w.name]
        traced = run_traced(
            w, seed, seconds, smoke,
            reference_rows=[row for run in mine for row in run["rows"]],
        )
        failures = [f for run in mine + [traced] for f in run["failures"]]
        if any(
            run["metrics"][m] != mine[0]["metrics"][m]
            for run in mine for m in QUALITY_METRICS
        ):
            failures.append("rounds of one seed returned different results")
        attempted = sum(run["attempted"] for run in mine + [traced])
        failed = sum(run["failed"] for run in mine + [traced])
        out[w.name] = {
            "end_to_end": {
                name: dict(_summary([run["metrics"][name] for run in mine]), unit=unit)
                for name, unit, _, _ in END_TO_END
            },
            "per_layer": {
                name: {"value": traced["metrics"][name], "unit": unit}
                for name, unit, _, _ in PER_LAYER
            },
            "ungated": {
                name: _summary([run["ungated"][name] for run in mine])
                for name in mine[0]["ungated"]
            },
            "ops_attempted": attempted,
            "ops_failed": max(failed, 1) if failures else 0,
            "failures": failures,
        }
        out[w.name]["failed_frac"] = out[w.name]["ops_failed"] / attempted

    def solve(name: str) -> float:
        return out[name]["ungated"]["solve_s"]["median"]

    return {
        "seed": seed, "rounds": rounds, "seconds": seconds, "smoke": smoke,
        "workloads": out,
        # The paper's Table-3 ratios; printed and stored, not gated.
        "derived": {
            "ours_over_dp": solve("ours_mini18") / solve("dp_mini18"),
            "ours_over_nw": solve("ours_mini18") / solve("nw_mini18"),
        },
    }


def print_suite(suite: dict) -> None:
    for name, block in suite["workloads"].items():
        print(f"\n== {name}: {BY_NAME[name].why}")
        for metric, unit, better, bound in END_TO_END:
            s = block["end_to_end"][metric]
            spread = (s["q3"] - s["q1"]) / s["median"] if "q1" in s else float("nan")
            print(
                f"  {metric:<14} median {s['median']:>12.6g} {unit:<3} "
                f"min {s['min']:>12.6g}  iqr/median {spread:6.1%}  n={s['n']}  "
                f"({better} is better, bound {bound:.0%})"
            )
        for metric, summary in block["ungated"].items():
            print(f"  (ungated) {metric:<14} median {summary['median']:>12.6g}")
        print(
            f"  failed_frac    {block['failed_frac']:.3f} "
            f"({block['ops_failed']}/{block['ops_attempted']} flows)"
        )
        layers = {k: v["value"] for k, v in block["per_layer"].items()}
        print_metrics(layers, units(True))
        for failure in block["failures"]:
            print(f"  FAILED: {failure}")
    print()
    for name, value in suite["derived"].items():
        paper = {"ours_over_dp": 3.14, "ours_over_nw": 0.56}[name]
        print(f"{name} = {value:.2f} (paper: {paper})")


def compare_sets(first: dict, second: dict) -> List[str]:
    """Where two sets of the same code disagree beyond the bounds."""
    problems = []
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric, _, _, bound in END_TO_END:
            ma, mb = a["end_to_end"][metric]["median"], b["end_to_end"][metric]["median"]
            gap = abs(mb - ma) / min(ma, mb)
            verdict = "ok" if gap <= bound else "OUT OF BOUND"
            print(f"  {name:<12} {metric:<14} {ma:>12.6g} vs {mb:>12.6g}  "
                  f"gap {gap:6.1%} (bound {bound:.0%}) {verdict}")
            if gap > bound:
                problems.append(f"{name} {metric}: {gap:.1%} > {bound:.0%}")
        for metric, unit, _, _ in PER_LAYER:
            if unit != "count":
                continue
            va, vb = a["per_layer"][metric]["value"], b["per_layer"][metric]["value"]
            if va != vb:
                problems.append(f"{name} {metric}: count {va} != {vb}")
    return problems


def append_history(suite: dict, history_dir: str) -> None:
    """One ``e2e`` ledger record, readable by ``python -m repro.harness trend``."""
    sys.path.insert(0, SRC)
    from repro.telemetry.history import append_record

    metrics = dict(suite["derived"])
    gates = {}
    for name, block in suite["workloads"].items():
        for metric, _, better, _ in END_TO_END:
            metrics[f"{name}.{metric}"] = block["end_to_end"][metric]["median"]
            gates[f"{name}.{metric}"] = better
    append_record("e2e", metrics, gates=gates, history_dir=history_dir)


def main_suite(args: argparse.Namespace) -> int:
    rounds, seconds = (1, 0.0) if args.smoke else (args.rounds, args.seconds)
    suite = run_suite(args.seed, rounds, seconds, args.smoke)
    print_suite(suite)
    problems = [
        f"{name}: {failure}"
        for name, block in suite["workloads"].items()
        for failure in block["failures"]
    ]
    if args.check_repeat:
        print("\nsecond set, same code:")
        second = run_suite(args.seed, rounds, seconds, args.smoke)
        problems += [
            f"{name}: {failure}"
            for name, block in second["workloads"].items()
            for failure in block["failures"]
        ]
        problems += compare_sets(suite, second)
        suite["repeat"] = second
    tag = "smoke" if args.smoke else f"seed{args.seed}"
    path = os.path.join(RESULTS, f"e2e_{tag}.json")
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    if args.history:
        append_history(suite, args.history)
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5,
                        help="suite form: timed rounds per workload")
    parser.add_argument("--check-repeat", action="store_true",
                        help="suite form: run two sets, fail if they disagree")
    parser.add_argument("--smoke", action="store_true",
                        help="suite form: one short round, checks on, no gating")
    parser.add_argument("--history", metavar="DIR",
                        help="suite form: append an 'e2e' record to this ledger")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    try:
        return main_driver(args) if args.workload else main_suite(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
