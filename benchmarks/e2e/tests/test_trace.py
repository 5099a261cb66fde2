"""Span arithmetic, and that wrapping the layers changes no result."""

import json

import numpy as np

import child
import trace as spantrace
from workloads import BY_NAME


class FakeClock:
    """Returns the scripted instants, one per call."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_self_time_on_a_synthetic_nest():
    # flow[0..100] > a[10..60] > b[20..30], b[35..50]; then a[70..90].
    rec = spantrace.Recorder(FakeClock(0, 10, 20, 30, 35, 50, 60, 70, 90, 100))
    root = rec.begin_flow("flow")
    a = rec.begin("a")
    for _ in range(2):
        rec.end(rec.begin("b"))
    rec.end(a)
    rec.end(rec.begin("a"))
    rec.end_flow(root)

    stats = spantrace.layer_stats(rec.spans, 0)
    assert stats["flow"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert stats["a"] == {"calls": 2, "total_ns": 70, "self_ns": 45}
    assert stats["b"] == {"calls": 2, "total_ns": 25, "self_ns": 25}
    assert sum(row["self_ns"] for row in stats.values()) == 100
    assert spantrace.count_children(rec.spans, 0, "b", "a") == 2
    assert spantrace.count_children(rec.spans, 0, "b", "flow") == 0


def test_calibration_spans_are_charged_to_no_layer():
    # flow[0..100] > place.placer.run[10..90] > bench.calibration[20..30].
    rec = spantrace.Recorder(FakeClock(0, 10, 20, 30, 90, 100))
    root = rec.begin_flow("harness.run_mode")
    run = rec.begin("place.placer.run")
    rec.end(rec.begin("bench.calibration"))
    rec.end(run)
    rec.end_flow(root)

    class Rec:
        iterations, trace, nonfinite_events, recoveries = 3, [{"overflow": 0.1}], {}, 0

    metrics = child.layer_metrics(rec.spans, 0, Rec, flow_ns=100)
    assert metrics["place.placer.run.self_s"] == 70 / 1e9
    assert metrics["harness.run_mode.self_s"] == 20 / 1e9
    assert metrics["bench.unattributed_s"] == 0.0


def test_reentrant_layer_is_totalled_once():
    rec = spantrace.Recorder(FakeClock(0, 1, 4, 10))
    outer = rec.begin("guard")
    rec.end(rec.begin("guard"))
    rec.end(outer)
    assert spantrace.layer_stats(rec.spans)["guard"] == {
        "calls": 2, "total_ns": 10, "self_ns": 10,
    }


def test_spans_outside_a_flow_get_flow_minus_one():
    rec = spantrace.Recorder()
    rec.end(rec.begin("setup"))
    root = rec.begin_flow("flow")
    rec.end_flow(root)
    assert [s[spantrace.FLOW] for s in rec.spans] == [-1, 0]
    assert set(spantrace.layer_stats(rec.spans, -1)) == {"setup"}


def _flow(workload, bundle, recorder=None):
    options = child.placer_options(workload, 0, 0, smoke=True)
    root = recorder.begin_flow("harness.run_mode") if recorder else None
    rec = child.run_mode(
        bundle.design, workload.mode, options, sta_graph=bundle.graph
    )
    if recorder:
        recorder.end_flow(root)
    return rec


def test_install_changes_no_result_and_spans_reconcile(tmp_path):
    workload = BY_NAME["ours_mini18"]
    bundle, _ = child.load_bundle(
        child.spec_for(workload, 0, 0), directory=str(tmp_path)
    )
    originals = {
        (m, p): _resolve(m, p) for m, p, _ in spantrace.TARGETS
    }
    plain = _flow(workload, bundle)

    recorder = spantrace.Recorder()
    uninstall = spantrace.install(recorder)
    try:
        traced = _flow(workload, bundle, recorder)
    finally:
        uninstall()
    assert {(m, p): _resolve(m, p) for m, p, _ in spantrace.TARGETS} == originals

    assert np.array_equal(plain.x, traced.x) and np.array_equal(plain.y, traced.y)
    assert child.quality(plain) == child.quality(traced)

    # Sum of self times == the root span, exactly (integer nanoseconds),
    # so self + unattributed == the flow's wall clock by construction.
    stats = spantrace.layer_stats(recorder.spans, 0)
    root = recorder.spans[0]
    root_ns = root[spantrace.END] - root[spantrace.START]
    assert sum(row["self_ns"] for row in stats.values()) == root_ns
    flow_ns = root_ns + 1234
    metrics = child.layer_metrics(recorder.spans, 0, traced, flow_ns)
    assert metrics["bench.unattributed_s"] == 1234 / 1e9
    # 120 iterations, timing term on from iteration 100.
    assert metrics["place.placer.iterations"] == 120
    assert metrics["place.wirelength.evaluate.calls"] == 120
    assert metrics["core.difftimer.forward.calls"] == 20
    assert metrics["core.objective.rsmt_reuse_ratio"] == 0.9
    assert metrics["sta.analysis.run.calls"] == 1  # sign-off only
    assert metrics["place.netweight.update.calls"] == 0


def _resolve(module_name, path):
    import importlib

    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_chrome_trace_is_a_real_timeline(tmp_path):
    rec = spantrace.Recorder(FakeClock(5000, 6000, 8000, 9000))
    root = rec.begin_flow("flow")
    rec.end(rec.begin("a"))
    rec.end_flow(root)
    path = tmp_path / "t.json"
    spantrace.write_chrome_trace(str(path), rec.spans)
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"], e["ts"], e["dur"], e["tid"]) for e in events] == [
        ("flow", "X", 0.0, 4.0, 1),
        ("a", "X", 1.0, 2.0, 1),
    ]
    assert events[1]["args"] == {"id": 1, "parent": 0}
