"""Tests for the span recorder (:mod:`repro.perf`)."""

import functools
import importlib
import importlib.util
import json
import os
import re
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import DifferentiableTimer
from repro.perf import (
    FLOW_SPAN,
    PROFILER,
    TARGETS,
    Recorder,
    format_stats,
    install,
    join_flows,
    layer_stats,
    write_chrome_trace,
)

_E2E_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e", "trace.py",
)


class FakeClock:
    """Returns the scripted instants, one per call."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


@pytest.fixture()
def profiler():
    """The shared recorder, installed and empty for one test."""
    PROFILER.reset()
    uninstall = install(PROFILER)
    yield PROFILER
    uninstall()
    PROFILER.reset()


def _resolve(module_name, path):
    return functools.reduce(
        getattr, path.split("."), importlib.import_module(module_name)
    )


def _names(spans):
    return {s[0] for s in spans}


class TestTimer:
    def test_stage_accumulates_time_and_calls(self):
        rec = Recorder(FakeClock(0, 3, 10, 14, 20, 25))
        for _ in range(3):
            rec.end(rec.begin("work"))
        assert layer_stats(rec.spans)["work"] == {
            "calls": 3, "total_ns": 12, "self_ns": 12,
        }

    def test_disabled_timer_records_nothing(self, small_design, spread_positions):
        uninstall = install(PROFILER)
        uninstall()
        assert not PROFILER.enabled
        DifferentiableTimer(small_design).tns_wns_with_grad(*spread_positions)
        assert PROFILER.spans == []

    def test_reset_clears_but_keeps_enabled(self, profiler):
        profiler.end(profiler.begin("a"))
        profiler.reset()
        assert profiler.spans == [] and profiler.enabled

    def test_report_lists_every_stage(self):
        stats = {
            FLOW_SPAN: {"calls": 1, "total_s": 2.0, "self_s": 0.5},
            "alpha": {"calls": 3, "total_s": 1.5, "self_s": 1.5},
        }
        lines = format_stats(stats, "unit").splitlines()
        assert lines[0] == "# unit"
        # Rows by descending self time, each with its share of the wall.
        assert lines[2].split() == ["alpha", "3", "1.500000", "1.500000", "75.0%"]
        assert lines[3].split()[0] == FLOW_SPAN and lines[3].endswith("25.0%")
        assert lines[-1].split()[-2:] == ["2.000000", "2.000000"]

    def test_report_handles_empty(self):
        assert "no spans" in format_stats({})


class TestSpanTree:
    def test_nested_stages_build_tree_with_self_time(self):
        # flow[0..100] > a[10..60] > b[20..30], b[35..50]; then a[70..90].
        rec = Recorder(FakeClock(0, 10, 20, 30, 35, 50, 60, 70, 90, 100))
        root = rec.begin_flow("flow")
        a = rec.begin("a")
        for _ in range(2):
            rec.end(rec.begin("b"))
        rec.end(a)
        rec.end(rec.begin("a"))
        rec.end_flow(root)
        stats = layer_stats(rec.spans, 0)
        assert stats["flow"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
        assert stats["a"] == {"calls": 2, "total_ns": 70, "self_ns": 45}
        assert stats["b"] == {"calls": 2, "total_ns": 25, "self_ns": 25}
        assert sum(row["self_ns"] for row in stats.values()) == 100

    def test_flat_stats_aggregate_across_tree_positions(self):
        # a[0..10] > shared[1..4]; b[10..20] > shared[12..13] > shared[12..13].
        rec = Recorder(FakeClock(0, 1, 4, 10, 10, 12, 12, 13, 13, 20))
        for parent in ("a", "b"):
            sid = rec.begin(parent)
            inner = rec.begin("shared")
            if parent == "b":
                rec.end(rec.begin("shared"))
            rec.end(inner)
            rec.end(sid)
        # A re-entered layer is totalled once.
        assert layer_stats(rec.spans)["shared"] == {
            "calls": 3, "total_ns": 4, "self_ns": 4,
        }


class TestThreadedStages:
    def test_tns_wns_with_grad_records_every_stage(
        self, profiler, small_design, spread_positions
    ):
        """One forward+backward call must hit each wrapped kernel."""
        timer = DifferentiableTimer(small_design)
        profiler.reset()
        timer.tns_wns_with_grad(*spread_positions)
        assert _names(profiler.spans) == {
            "core.difftimer.forward",
            "core.difftimer.backward",
            "route.build_forest",
            "route.forest.finalize",
            "core.difftimer.elmore",
            "core.difftimer.levels",
            "core.sweep.forward",
            "core.difftimer.endpoints",
            "core.sweep.adjoint",
        }

    def test_disabled_profiler_stays_empty(self, small_design, spread_positions):
        assert not PROFILER.enabled
        DifferentiableTimer(small_design).tns_wns_with_grad(*spread_positions)
        assert PROFILER.spans == []


class TestTargets:
    def test_every_target_resolves(self):
        for module_name, path, name in TARGETS:
            assert callable(_resolve(module_name, path)), (module_name, path)

    def test_superset_of_the_benchmark_table(self):
        spec = importlib.util.spec_from_file_location("e2e_trace", _E2E_TRACE)
        trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace)
        assert set(trace.TARGETS) <= set(TARGETS)

    def test_install_changes_no_result_and_undo_restores(
        self, small_design, spread_positions
    ):
        originals = [_resolve(m, p) for m, p, _ in TARGETS]
        timer = DifferentiableTimer(small_design)
        plain = timer.tns_wns_with_grad(*spread_positions)
        uninstall = install(PROFILER)
        try:
            assert PROFILER.enabled
            traced = timer.tns_wns_with_grad(*spread_positions)
        finally:
            uninstall()
            PROFILER.reset()
        assert [_resolve(m, p) for m, p, _ in TARGETS] == originals
        assert not PROFILER.enabled
        assert plain[:2] == traced[:2]
        assert np.array_equal(plain[2], traced[2])
        assert np.array_equal(plain[3], traced[3])


class TestChromeTrace:
    def test_join_flows_renumbers_parents(self):
        rec = Recorder(FakeClock(*range(10)))
        rec.end(rec.begin("setup"))
        for _ in range(2):
            root = rec.begin_flow("flow")
            rec.end(rec.begin("a"))
            rec.end_flow(root)
        joined = join_flows([(rec.spans, 1), (rec.spans, 0)])
        assert [(s[0], s[3], s[4]) for s in joined] == [
            ("flow", -1, 0), ("a", 0, 0), ("flow", -1, 1), ("a", 2, 1),
        ]

    def test_tracks_are_named_and_spans_nest(self, tmp_path):
        rec = Recorder(FakeClock(5000, 6000, 8000, 9000))
        root = rec.begin_flow("flow")
        rec.end(rec.begin("a"))
        rec.end_flow(root)
        path = tmp_path / "sub" / "t.json"
        write_chrome_trace(str(path), rec.spans, ["run0"])
        events = json.loads(path.read_text())["traceEvents"]
        assert events[0] == {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "run0"},
        }
        assert [(e["name"], e["ts"], e["dur"], e["tid"]) for e in events[1:]] == [
            ("flow", 0.0, 4.0, 1), ("a", 1.0, 2.0, 1),
        ]


class TestReconciliation:
    def test_profile_table_reconciles_to_run_mode_wall(self, capsys):
        """``run --profile``: the self times add up to the flow's wall."""
        t0 = time.perf_counter()
        assert main([
            "run", "--design", "miniblue18", "--mode", "ours",
            "--max-iters", "150", "--profile",
        ]) == 0
        outside = time.perf_counter() - t0
        out = capsys.readouterr().out
        table = out[out.index("# miniblue18/ours"):].splitlines()
        row = re.compile(r"^(\S+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+[\d.]+%$")
        rows = {
            m.group(1): (int(m.group(2)), float(m.group(3)), float(m.group(4)))
            for m in map(row.match, table) if m
        }
        wall, self_sum = map(float, table[-1].split()[-2:])
        assert wall == rows[FLOW_SPAN][1] and 0.0 < wall < outside
        assert abs(sum(r[2] for r in rows.values()) - wall) <= 1e-3 * wall
        assert abs(self_sum - wall) <= 1e-3 * wall
        for name in (
            "core.difftimer.elmore",
            "core.difftimer.levels",
            "core.difftimer.endpoints",
            "core.sweep.forward",
            "core.sweep.adjoint",
            "core.sweep.required",
            "place.wirelength.evaluate",
            "place.wirelength.hpwl",
            "place.density.prepass",
            "place.density.dct",
            "place.density.divide",
            "place.density.idct",
            "place.density.postpass",
            "route.build_forest",
            "route.forest.finalize",
            "runtime.guard",
            "harness.final_sta",
        ):
            assert rows[name][0] > 0, name
        assert not PROFILER.enabled and PROFILER.spans == []
