"""Flows child of the end-to-end benchmark: one round.

``run.py`` starts this file in a fresh interpreter with one JSON
argument and reads one JSON line back.  It loads the bundles the set-up
children (``coldstart.py``) wrote, then runs the workload's flow back to
back (closed loop, one client) until ``seconds`` have passed and every
input has run often enough; it checks every output and reports one row
per flow.  With ``trace`` on, the layers' entry points are wrapped first
and every row carries its per-layer numbers.

Every time is reported twice: as the wall clock read it, and at
reference machine speed (``calibrate.py``: this process runs a fixed
kernel between placer iterations and counts the time between two such
marks at the speed they show).  Kernel time itself is never counted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import trace as spantrace  # noqa: E402
from workloads import BY_NAME, PER_LAYER, Workload  # noqa: E402

from repro.harness.runners import RunRecord, run_mode  # noqa: E402
from repro.harness.suite import design_spec  # noqa: E402
from repro.netlist.cache import clear_memo, load_bundle  # noqa: E402
from repro.netlist.design import Design  # noqa: E402
from repro.netlist.generator import GeneratorSpec  # noqa: E402
from repro.perf import PROFILER  # noqa: E402
from repro.place.placer import PlacerOptions  # noqa: E402
from repro.place.wirelength import hpwl  # noqa: E402
from repro.sta.analysis import run_sta  # noqa: E402


def sub_seed(workload: Workload, seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run; no two runs share one."""
    return seed * workload.n_inputs + index


def spec_for(workload: Workload, seed: int, index: int) -> GeneratorSpec:
    """Generator spec of one input of a run.

    Seed 0, input 0 is exactly the published suite design.  Workloads
    that vary the design offset the generator seed for every other
    (seed, index), so the program only ever sees generated inputs.
    """
    spec = design_spec(workload.design)
    if not workload.vary_design:
        return spec
    return dataclasses.replace(
        spec, seed=spec.seed + sub_seed(workload, seed, index)
    )


def placer_options(workload: Workload, seed: int, index: int, smoke: bool) -> PlacerOptions:
    return PlacerOptions(
        seed=sub_seed(workload, seed, index),
        max_iters=workload.smoke_iters if smoke else workload.max_iters,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def check_flow(design: Design, rec: RunRecord, stop_reason: str) -> List[str]:
    """Everything one returned flow must satisfy; [] when it does."""
    failures = []
    if rec.stop_reason != stop_reason:
        failures.append(
            f"stop_reason {rec.stop_reason!r}, expected {stop_reason!r}"
        )
    x, y = rec.x, rec.y
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        failures.append("non-finite cell coordinates")
    else:
        xl, yl, xh, yh = design.die
        if x.min() < xl or x.max() > xh or y.min() < yl or y.max() > yh:
            failures.append("cell outside the die")
    fixed = design.cell_fixed
    if not (
        np.array_equal(x[fixed], design.cell_x[fixed])
        and np.array_equal(y[fixed], design.cell_y[fixed])
    ):
        failures.append("fixed cell moved")
    if rec.nonfinite_events:
        failures.append(f"nonfinite_events {rec.nonfinite_events}")
    if rec.recoveries:
        failures.append(f"{rec.recoveries} recoveries")
    return failures


def check_signoff(design: Design, rec: RunRecord) -> List[str]:
    """Recompute WNS/TNS/HPWL from scratch on a freshly built graph."""
    fresh = run_sta(design, rec.x, rec.y)
    failures = []
    for name, got, want in (
        ("wns", fresh.wns_setup, rec.wns),
        ("tns", fresh.tns_setup, rec.tns),
        ("hpwl", hpwl(design, rec.x, rec.y), rec.hpwl),
    ):
        if not np.isclose(got, want, rtol=1e-9, atol=0.0):
            failures.append(f"sign-off {name} {got!r} != recorded {want!r}")
    return failures


def quality(rec: RunRecord) -> Dict[str, float]:
    """What must repeat bit for bit when the same input runs again."""
    return {
        "wns": rec.wns, "tns": rec.tns, "hpwl": rec.hpwl,
        "iterations": rec.iterations,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced flow
# ---------------------------------------------------------------------------
def layer_metrics(
    spans: List[list], flow: int, rec: RunRecord, flow_ns: int
) -> Dict[str, float]:
    """Per-layer numbers of one traced flow that took ``flow_ns`` in all."""
    stats = spantrace.layer_stats(spans, flow)
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
    # Calibration marks are the benchmark's, not the flow's.
    flow_ns -= stats.pop(calibrate.SPAN, zero)["total_ns"]

    def calls(name: str) -> int:
        return stats.get(name, zero)["calls"]

    def total(name: str) -> float:
        return stats.get(name, zero)["total_ns"] / 1e9

    def self_(name: str) -> float:
        return stats.get(name, zero)["self_ns"] / 1e9

    def per_call_ms(seconds: float, n: int) -> float:
        return 1e3 * seconds / n if n else 0.0

    out: Dict[str, float] = {
        "place.placer.init_s": total("place.placer.init"),
        "place.placer.run.self_s": self_("place.placer.run"),
        "place.placer.iterations": rec.iterations,
        "place.placer.final_overflow": rec.trace[-1]["overflow"],
        "runtime.guard.calls": calls("runtime.guard"),
        "runtime.guard.total_s": total("runtime.guard"),
        "runtime.guard.nonfinite_events": sum(rec.nonfinite_events.values()),
        "runtime.guard.recoveries": rec.recoveries,
        "core.timing_placer.init_s": total("core.timing_placer.init"),
        "core.objective.call.self_s": self_("core.objective.call"),
        "place.netweight.update.calls": calls("place.netweight.update"),
        "place.netweight.update.self_s": self_("place.netweight.update"),
        "sta.analysis.run.calls": calls("sta.analysis.run"),
        "sta.analysis.run.self_s": self_("sta.analysis.run"),
        "sta.analysis.run.ms_per_call": per_call_ms(
            self_("sta.analysis.run"), calls("sta.analysis.run")
        ),
        "harness.final_sta.total_s": total("harness.final_sta"),
        "harness.run_mode.self_s": self_("harness.run_mode"),
    }
    for layer in (
        "place.wirelength.evaluate",
        "place.density.evaluate",
        "place.optimizer.step",
    ):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.total_s"] = total(layer)
    for layer in (
        "core.difftimer.forward",
        "core.difftimer.backward",
        "route.build_forest",
    ):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.total_s"] = total(layer)
        out[f"{layer}.ms_per_call"] = per_call_ms(total(layer), calls(layer))
    forwards = calls("core.difftimer.forward")
    builds = spantrace.count_children(
        spans, flow, "route.build_forest", "core.objective.call"
    )
    out["core.objective.rsmt_reuse_ratio"] = (
        1.0 - builds / forwards if forwards else 0.0
    )
    attributed_ns = sum(row["self_ns"] for row in stats.values())
    out["bench.unattributed_s"] = (flow_ns - attributed_ns) / 1e9
    out["bench.unattributed_frac"] = (flow_ns - attributed_ns) / flow_ns
    return out


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------
#: Per-layer metrics that are times, and so are reported at reference speed.
TIMED_LAYERS = frozenset(row[0] for row in PER_LAYER if row[1] in ("s", "ms"))


def _traced_setup(
    spec: GeneratorSpec, directory: str, recorder, cal: calibrate.Calibrator
) -> Dict[str, float]:
    """Set-up layers of one design: a wrapped cold load, then a warm one."""
    cal.mark()
    t0 = cal.now()
    _, info = load_bundle(spec, directory=directory)
    if info.hit:
        raise RuntimeError("the traced round needs an empty cache dir")
    cold = spantrace.layer_stats(recorder.spans, -1)
    clear_memo()
    warm0 = time.perf_counter()
    bundle, _ = load_bundle(spec, directory=directory)
    warm_s = time.perf_counter() - warm0
    t1 = cal.now()
    cal.mark()
    busy, reference = cal.seconds(t0, t1)
    speed = reference / busy
    return {
        "netlist.generate.cold_s": speed * cold["netlist.generate"]["total_ns"] / 1e9,
        "sta.graph.build_s": speed * cold["sta.graph.build"]["total_ns"] / 1e9,
        "sta.graph.n_levels": bundle.graph.n_levels,
        "netlist.load_bundle.warm_s": speed * warm_s,
    }


def run_flows(args: dict) -> dict:
    workload = BY_NAME[args["workload"]]
    seed, smoke, traced = args["seed"], args["smoke"], args["trace"]
    n_inputs = args["n_inputs"]
    dirs = args["cache_dirs"]
    stop_reason = "max_iters" if smoke else workload.stop_reason
    if PROFILER.enabled:
        raise RuntimeError("repro.perf.PROFILER must stay off in the benchmark")

    cal = calibrate.Calibrator.for_kernel(workload.kernel)
    recorder = spantrace.Recorder()
    sign_off_at: List[float] = []
    setup_layers: Dict[str, float] = {}

    def sign_off() -> None:
        cal.mark()  # sign-off has no iterations to mark between
        sign_off_at.append(cal.now())

    with ExitStack() as hooks:
        if traced:
            hooks.callback(spantrace.install(recorder))
            cal.recorder = recorder
            setup_layers = _traced_setup(
                spec_for(workload, seed, 0), dirs[0], recorder, cal
            )
        # On top of the span wrappers, so that a mark is charged to no layer.
        hooks.callback(calibrate.patch(*calibrate.ITERATION, cal.tick))
        hooks.callback(calibrate.patch(*calibrate.SIGN_OFF, sign_off))
        # Bundles the set-up children left are read back; the rest are
        # built here, before the clock starts.
        bundles = [
            load_bundle(spec_for(workload, seed, i), directory=dirs[i % len(dirs)])[0]
            for i in range(n_inputs)
        ]

        rows: List[dict] = []
        last: Dict[int, RunRecord] = {}
        deadline = time.monotonic() + args["seconds"]
        while len(rows) < n_inputs or time.monotonic() < deadline:
            index = len(rows) % n_inputs
            bundle = bundles[index]
            options = placer_options(workload, seed, index, smoke)
            row = {"input": index, "failures": []}
            cal.mark()
            t0 = cal.now()
            ns0 = time.perf_counter_ns()
            root = recorder.begin_flow("harness.run_mode") if traced else None
            try:
                rec: Optional[RunRecord] = run_mode(
                    bundle.design, workload.mode, options,
                    sta_graph=bundle.graph,
                )
            except Exception:
                rec = None
                row["failures"].append(traceback.format_exc(limit=4))
            finally:
                if root is not None:
                    recorder.end_flow(root)
            flow_ns = time.perf_counter_ns() - ns0
            t1 = cal.now()
            cal.mark()
            if rec is not None:
                flow_s, flow_ref_s = cal.seconds(t0, t1)
                solve_s, solve_ref_s = cal.seconds(t0, sign_off_at[-1])
                row.update(
                    solve_s=solve_s, flow_s=flow_s,
                    solve_ref_s=solve_ref_s, flow_ref_s=flow_ref_s,
                    speed=flow_ref_s / flow_s,
                    iterations=rec.iterations,
                    solve_iter_ms=1e3 * solve_ref_s / rec.iterations,
                    flow_iter_ms=1e3 * flow_ref_s / rec.iterations,
                    quality=quality(rec), stop_reason=rec.stop_reason,
                )
                row["failures"] += check_flow(bundle.design, rec, stop_reason)
                last[index] = rec
                if traced:
                    layers = layer_metrics(
                        recorder.spans, recorder.spans[root][spantrace.FLOW],
                        rec, flow_ns,
                    )
                    row["layers"] = {
                        name: value * (row["speed"] if name in TIMED_LAYERS else 1)
                        for name, value in layers.items()
                    }
            rows.append(row)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks made once per input, outside the timed loop.
    for index, rec in last.items():
        first = next(r for r in rows if r["input"] == index)
        if not first["failures"]:  # no sign-off STA on broken coordinates
            first["failures"] += check_signoff(bundles[index].design, rec)
        if any(
            r["quality"] != first["quality"]
            for r in rows
            if r["input"] == index and "quality" in r
        ):
            first["failures"].append("repeats of one input differ")
    ok = [r for r in rows if not r["failures"]]
    if workload.mode == "ours" and stop_reason == "overflow" and ok:
        # The paper's direction: our converged flow must beat plain
        # wirelength-driven placement on timing, on these very inputs.
        base = [
            run_mode(
                b.design, "dreamplace",
                placer_options(workload, seed, i, smoke), sta_graph=b.graph,
            )
            for i, b in enumerate(bundles)
        ]
        for name in ("wns", "tns"):
            ours = statistics.median(-r["quality"][name] for r in ok)
            dp = statistics.median(-quality(r)[name] for r in base)
            if not ours < dp:
                rows[0]["failures"].append(
                    f"{name} violation {ours:.1f} not below dreamplace's {dp:.1f}"
                )

    if traced:
        os.makedirs(os.path.dirname(args["trace_out"]), exist_ok=True)
        spantrace.write_chrome_trace(args["trace_out"], recorder.spans)
    return {
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["failures"]),
        "failures": [f for r in rows for f in r["failures"]],
        "rows": rows,
        "peak_rss_mb": peak_rss_mb,
        "setup_layers": setup_layers,
    }


def main(argv: Sequence[str]) -> int:
    args = json.loads(argv[1])
    print(json.dumps(run_flows(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
