"""Observability surfaces: status/tail/trend CLIs and trace export.

Covers the reader side of the live-observability stack: ``status``
rendered from run directories, torn-line-safe event following with
convergence deltas, the Chrome ``trace_event`` export behind
``--trace-out``, and the perf-regression ledger's drift gate.
"""

import json
import os
import time

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.observe import EventFollower, format_status
from repro.perf import PROFILER, write_chrome_trace
from repro.telemetry.events import MetricsRecorder
from repro.telemetry.history import append_record, load_history
from repro.telemetry.session import run_state, start_run


def _seed_run(tmp_path, run_id="live_run"):
    """An in-flight run of this process, started but not finalized."""
    session = start_run(
        str(tmp_path), design="midiblue50", mode="ours", seed=0,
        run_id=run_id,
    )
    session.recorder.event(
        "run_start", iteration=0, design="midiblue50", seed=0,
        max_iters=600, resumed=False, pid=os.getpid(),
    )
    return session


class TestStatus:
    def test_empty_registry_renders_header_only(self, tmp_path, capsys):
        assert harness_main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "RUN" in out and "(no active runs)" in out

    def test_live_run_row(self, tmp_path, capsys):
        session = _seed_run(tmp_path)
        session.recorder.iteration(42, {"hpwl": 1.0})
        session.recorder.event(
            "resource", iteration=42, rss_bytes=64 << 20,
            cpu_user_s=1.5, cpu_sys_s=0.2,
        )
        session.recorder.close()
        assert harness_main(["status", str(tmp_path)]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        fields = row.split()
        assert fields[:7] == [
            "live_run", "midiblue50", "ours", "place", "42", "-", "64.0MB",
        ]
        assert fields[-1] == "live"

    def test_json_output_carries_state_and_rate(self, tmp_path, capsys):
        session = _seed_run(tmp_path)
        session.recorder.iteration(10, {"hpwl": 1.0})
        time.sleep(0.01)
        session.recorder.iteration(20, {"hpwl": 1.0})
        session.recorder.close()
        assert harness_main(["status", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload
        assert entry["run_id"] == "live_run"
        assert entry["state"] == "live"
        assert entry["iteration_rate"] > 0
        assert {
            "run_id", "pid", "design", "mode", "phase", "iteration",
            "started", "ts", "ts_mono", "anchor_iteration", "anchor_ts",
            "rss_bytes", "cpu_user_s", "cpu_sys_s", "extra", "state",
            "age_s", "iteration_rate",
        } <= set(entry)

    def test_format_status_stale_threshold(self, tmp_path):
        session = _seed_run(tmp_path)
        session.recorder.close()
        state = run_state(session.run_dir)
        state.ts -= 100.0
        records = [state]
        assert "stale" in format_status(records, stale_after_s=15.0)
        assert "live" in format_status(records, stale_after_s=3600.0)


def _write_stream(path, iterations=3, end=True, torn_tail=False):
    with MetricsRecorder(str(path)) as rec:
        rec.event(
            "run_start", iteration=0, design="miniblue1",
            seed=0, max_iters=30, resumed=False,
        )
        for it in range(iterations):
            rec.iteration(it, {"hpwl": 1000.0 - 10.0 * it, "overflow": 0.9})
        rec.event("resource", iteration=iterations - 1,
                  rss_bytes=64 << 20, cpu_user_s=1.5, cpu_sys_s=0.2)
        if end:
            rec.event(
                "run_end", iteration=iterations - 1,
                stop_reason="max_iters", iterations=iterations,
                hpwl=1000.0 - 10.0 * (iterations - 1), overflow=0.9,
            )
    if torn_tail:
        with open(path, "a") as handle:
            handle.write('{"ts": 1.0, "kind": "iterat')


class TestTail:
    def test_once_renders_deltas_and_summary(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        _write_stream(events)
        assert harness_main(["tail", str(events), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run_start design=miniblue1" in out
        assert "it 1/30" in out and "(-1.00%)" in out
        assert "resource rss 64.0MB" in out
        assert "run_end stop=max_iters" in out
        assert "-- 6 event(s), 0 torn partial record(s) skipped, run ended" \
            in out

    def test_once_counts_torn_tail_and_reports_in_flight(
        self, tmp_path, capsys
    ):
        events = tmp_path / "events.jsonl"
        _write_stream(events, end=False, torn_tail=True)
        assert harness_main(["tail", str(events), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1 torn partial record(s) skipped" in out
        assert "run in flight" in out

    def test_once_missing_stream_fails(self, tmp_path, capsys):
        code = harness_main(
            ["tail", str(tmp_path), "--run", "nope", "--once"]
        )
        assert code == 1
        assert "no event stream" in capsys.readouterr().out

    def test_run_dir_resolution_and_ambiguity(self, tmp_path, capsys):
        for rid in ("a", "b"):
            os.makedirs(tmp_path / rid)
            _write_stream(tmp_path / rid / "events.jsonl", iterations=1)
        # Two runs without --run is ambiguous.
        with pytest.raises(SystemExit, match="--run"):
            harness_main(["tail", str(tmp_path), "--once"])
        assert harness_main(
            ["tail", str(tmp_path), "--run", "a", "--once"]
        ) == 0
        assert "run ended" in capsys.readouterr().out

    def test_follow_mode_stops_at_run_end(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        _write_stream(events)
        assert harness_main(
            ["tail", str(events), "--timeout", "10"]
        ) == 0
        assert "run_end" in capsys.readouterr().out

    def test_follower_buffers_partial_trailing_line(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        follower = EventFollower(path)
        assert follower.poll() == []  # not created yet
        with open(path, "w") as handle:
            handle.write('{"kind": "iteration", "iteration": 0}\n')
            handle.write('{"kind": "iter')  # writer caught mid-record
        first = follower.poll()
        assert [e["iteration"] for e in first] == [0]
        with open(path, "a") as handle:
            handle.write('ation", "iteration": 1}\n')
        second = follower.poll()
        assert [e["iteration"] for e in second] == [1]
        assert follower.skipped == 0

    def test_follower_counts_unparsable_complete_line(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        with open(path, "w") as handle:
            handle.write("garbage that never parses\n")
            handle.write('{"kind": "iteration", "iteration": 2}\n')
        follower = EventFollower(path)
        events = follower.poll()
        assert [e["iteration"] for e in events] == [2]
        assert follower.skipped == 1


class TestTraceExport:
    @pytest.fixture()
    def timeline(self, small_design):
        from repro.harness.runners import run_mode
        from repro.place.placer import PlacerOptions

        record = run_mode(
            small_design,
            "ours",
            placer_options=PlacerOptions(max_iters=4, min_iters=1, seed=0),
            collect_spans=True,
        )
        assert record.timeline is not None
        return record.timeline

    def test_trace_events_nest_inside_their_parents(self, timeline, tmp_path):
        out = str(tmp_path / "trace.json")
        write_chrome_trace(out, timeline)
        with open(out) as handle:
            events = json.load(handle)["traceEvents"]
        assert events, "a placer run must produce spans"
        assert events[0]["name"] == "harness.run_mode"
        assert events[0]["ts"] == 0.0
        for event in events:
            assert event["ph"] == "X" and event["tid"] == 1
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            parent = event["args"]["parent"]
            if parent >= 0:
                outer = events[parent]
                assert outer["ts"] <= event["ts"]
                assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_write_chrome_trace_is_loadable(self, timeline, tmp_path):
        out = str(tmp_path / "trace.json")
        write_chrome_trace(out, timeline, ["small/ours"])
        with open(out) as handle:
            trace = json.load(handle)
        assert trace["displayTimeUnit"] == "ms"
        names = {e["ph"] for e in trace["traceEvents"]}
        assert names == {"M", "X"}
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["name"] == "thread_name"
        assert meta[0]["args"]["name"] == "small/ours"

    def test_collect_spans_leaves_profiler_state_alone(self, timeline):
        # run_mode installs the shared recorder for the call only, and
        # leaves it empty.
        assert not PROFILER.enabled
        assert PROFILER.spans == []


class TestTrend:
    def _seed(self, history_dir, values, bench="rsmt_forest"):
        for i, value in enumerate(values):
            append_record(
                bench,
                {"speedup": value},
                gates={"speedup": "higher"},
                history_dir=str(history_dir),
                git_rev=f"rev{i}",
            )

    def test_steady_history_passes(self, tmp_path, capsys):
        self._seed(tmp_path, [3.1, 3.2, 3.0, 3.15])
        assert harness_main(["trend", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# trend: rsmt_forest" in out
        assert "ok: latest within" in out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        self._seed(tmp_path, [3.1, 3.2, 3.0, 3.15, 2.0])
        assert harness_main(["trend", "--history", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT speedup" in out

    def test_rtol_widens_the_gate(self, tmp_path):
        self._seed(tmp_path, [3.0, 3.0, 2.5])
        assert harness_main(
            ["trend", "--history", str(tmp_path), "--rtol", "0.3"]
        ) == 0
        assert harness_main(
            ["trend", "--history", str(tmp_path), "--rtol", "0.05"]
        ) == 1

    def test_named_bench_selection_and_missing(self, tmp_path, capsys):
        self._seed(tmp_path, [1.0, 1.0], bench="placer_suite")
        assert harness_main(
            ["trend", "placer_suite", "--history", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert harness_main(
            ["trend", "absent_bench", "--history", str(tmp_path)]
        ) == 1
        assert "no history for bench 'absent_bench'" in \
            capsys.readouterr().out

    def test_record_says_whether_the_tree_was_dirty(self, tmp_path):
        import subprocess

        from repro.telemetry.manifest import git_tree_dirty

        repo = tmp_path / "repo"
        repo.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
        (repo / "a.txt").write_text("a")
        subprocess.run(git + ["add", "a.txt"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-q", "-m", "a"], cwd=repo, check=True)
        assert git_tree_dirty(str(repo)) is False
        (repo / "a.txt").write_text("b")
        assert git_tree_dirty(str(repo)) is True
        assert git_tree_dirty(str(tmp_path / "absent")) is None
        # The ledger stores it next to git_rev; trend reads past it.
        self._seed(tmp_path / "h", [3.0, 3.1])
        record = load_history("rsmt_forest", str(tmp_path / "h"))[-1]
        assert list(record)[:3] == ["bench", "git_rev", "tree_dirty"]
        assert record["tree_dirty"] == git_tree_dirty()
        assert harness_main(["trend", "--history", str(tmp_path / "h")]) == 0

    def test_empty_history_reports_nothing_to_check(self, tmp_path, capsys):
        assert harness_main(["trend", "--history", str(tmp_path)]) == 0
        assert "no benchmark history" in capsys.readouterr().out
