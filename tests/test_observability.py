"""Observability surfaces: trace export and the perf-regression ledger.

Covers the Chrome ``trace_event`` export behind ``--trace-out`` and the
drift gate of ``python -m repro trend``.
"""

import json

import pytest

from repro.harness.__main__ import main as harness_main
from repro.perf import PROFILER, write_chrome_trace
from repro.telemetry.history import append_record, load_history


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
