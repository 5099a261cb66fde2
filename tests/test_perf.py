"""Tests for the per-stage profiling layer (:mod:`repro.perf`)."""

import threading

import numpy as np
import pytest

from repro.core import DifferentiableTimer
from repro.perf import (
    PROFILER,
    Timer,
    format_span_tree,
    get_profiler,
    profile_enabled_by_env,
)
from repro.sta import IncrementalTimer


@pytest.fixture()
def profiler():
    """The shared profiler, enabled and reset for one test."""
    was_enabled = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    yield PROFILER
    PROFILER.reset()
    PROFILER.enabled = was_enabled


class TestTimer:
    def test_stage_accumulates_time_and_calls(self):
        t = Timer(enabled=True)
        for _ in range(3):
            with t.stage("work"):
                pass
        stats = t.stats()
        assert stats["work"]["calls"] == 3
        assert stats["work"]["total_s"] >= 0.0
        assert stats["work"]["mean_s"] == pytest.approx(
            stats["work"]["total_s"] / 3
        )

    def test_disabled_timer_records_nothing(self):
        t = Timer()
        with t.stage("ignored"):
            pass
        assert t.stats() == {}

    def test_reset_clears_but_keeps_enabled(self):
        t = Timer(enabled=True)
        with t.stage("a"):
            pass
        t.reset()
        assert t.stats() == {}
        assert t.enabled

    def test_add_direct(self):
        t = Timer(enabled=True)
        t.add("manual", 0.5, calls=2)
        assert t.stats()["manual"] == {
            "calls": 2,
            "total_s": 0.5,
            "mean_s": 0.25,
        }

    def test_report_lists_every_stage(self):
        t = Timer(enabled=True)
        t.add("alpha", 0.1)
        t.add("beta", 0.2)
        text = t.report("unit")
        assert "alpha" in text and "beta" in text and "unit" in text

    def test_report_handles_empty(self):
        assert "no stages" in Timer(enabled=True).report()

    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile_enabled_by_env()
        assert Timer().enabled
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profile_enabled_by_env()
        monkeypatch.delenv("REPRO_PROFILE")
        assert not Timer().enabled

    def test_get_profiler_is_shared(self):
        assert get_profiler() is PROFILER


class TestSpanTree:
    def test_nested_stages_build_tree_with_self_time(self):
        t = Timer(enabled=True)
        with t.stage("outer"):
            t.add("inner", 0.25)
            t.add("inner", 0.25)
        tree = t.tree()
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert outer["calls"] == 1
        (inner,) = outer["children"]
        assert inner["name"] == "inner"
        assert inner["calls"] == 2
        assert inner["total_s"] == pytest.approx(0.5)
        # Self-time is total minus children (synthetic child seconds can
        # exceed the parent's measured wall-clock).
        assert outer["self_s"] == pytest.approx(outer["total_s"] - 0.5)
        assert tree["name"] == "run"
        assert tree["total_s"] == pytest.approx(outer["total_s"])

    def test_flat_stats_aggregate_across_tree_positions(self):
        t = Timer(enabled=True)
        with t.stage("a"):
            t.add("shared", 0.1)
        with t.stage("b"):
            t.add("shared", 0.3)
        stats = t.stats()
        assert stats["shared"]["calls"] == 2
        assert stats["shared"]["total_s"] == pytest.approx(0.4)

    def test_two_threads_same_stage_name_sum_cleanly(self):
        """Regression: concurrent stages must not corrupt shared state."""
        t = Timer(enabled=True)
        n_per_thread = 200
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            for _ in range(n_per_thread):
                with t.stage("hot"):
                    t.add("leaf", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        stats = t.stats()
        assert stats["hot"]["calls"] == 2 * n_per_thread
        assert stats["leaf"]["calls"] == 2 * n_per_thread
        assert stats["leaf"]["total_s"] == pytest.approx(
            2 * n_per_thread * 0.001
        )
        # Each thread's leaf spans nest under "hot", never interleave.
        tree = t.tree()
        (hot,) = tree["children"]
        assert [c["name"] for c in hot["children"]] == ["leaf"]

    def test_counters_attach_to_current_span(self):
        t = Timer(enabled=True)
        with t.stage("work"):
            t.incr("cache_hit")
            t.incr("cache_hit", 2)
        t.incr("top_level")
        assert t.counters() == {"cache_hit": 3, "top_level": 1}
        (work,) = [c for c in t.tree()["children"] if c["name"] == "work"]
        assert work["counters"] == {"cache_hit": 3}

    def test_counters_noop_when_disabled(self):
        t = Timer()
        t.incr("ignored")
        assert t.counters() == {}

    def test_span_report_indents_children(self):
        t = Timer(enabled=True)
        with t.stage("outer"):
            t.add("inner", 0.1)
        text = t.span_report("unit spans")
        lines = text.splitlines()
        assert "unit spans" in lines[0]
        outer_line = next(l for l in lines if l.startswith("outer"))
        inner_line = next(l for l in lines if "inner" in l)
        assert inner_line.startswith("  inner")
        assert outer_line.index("outer") < inner_line.index("inner")

    def test_format_span_tree_handles_empty(self):
        assert "no spans" in format_span_tree(Timer(enabled=True).tree())

    def test_reset_during_open_stage_is_safe(self):
        t = Timer(enabled=True)
        with t.stage("outer"):
            t.reset()
            with t.stage("inner"):
                pass
        stats = t.stats()
        # The re-accumulated spans land in the fresh tree without error.
        assert "inner" in stats and "outer" in stats


class TestThreadedStages:
    def test_tns_wns_with_grad_records_every_stage(
        self, profiler, small_design, spread_positions
    ):
        """One forward+backward call must hit each instrumented kernel."""
        x, y = spread_positions
        DifferentiableTimer(small_design).tns_wns_with_grad(x, y)
        stats = profiler.stats()
        for stage in (
            "route.build_forest",
            "difftimer.forward.elmore",
            "difftimer.forward.levels",
            "propagate.net_level",
            "propagate.cell_level",
            "difftimer.forward.endpoints",
            "difftimer.backward.levels",
            "difftimer.backward.cell_level",
            "difftimer.backward.net_level",
            "difftimer.backward.elmore",
        ):
            assert stage in stats, f"missing stage {stage}"
            assert stats[stage]["calls"] >= 1

    def test_incremental_move_records_stages(
        self, profiler, small_design, spread_positions
    ):
        x, y = spread_positions
        timer = IncrementalTimer(small_design)
        timer.reset(x, y)
        profiler.reset()
        ci = int(np.nonzero(~small_design.cell_fixed)[0][0])
        timer.move([ci], [x[ci] + 2.0], [y[ci] + 1.0])
        stats = profiler.stats()
        for stage in (
            "incremental.reroute",
            "incremental.sweep",
            "incremental.endpoints",
        ):
            assert stage in stats, f"missing stage {stage}"

    def test_disabled_profiler_stays_empty(
        self, small_design, spread_positions
    ):
        was_enabled = PROFILER.enabled
        PROFILER.disable()
        PROFILER.reset()
        try:
            x, y = spread_positions
            DifferentiableTimer(small_design).tns_wns_with_grad(x, y)
            assert PROFILER.stats() == {}
        finally:
            PROFILER.enabled = was_enabled
