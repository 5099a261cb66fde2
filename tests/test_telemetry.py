"""Tests for the unified telemetry subsystem (:mod:`repro.telemetry`)."""

import glob
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.harness import load_design
from repro.harness.__main__ import main as harness_main
from repro.harness.runners import run_mode
from repro.harness.supervisor import SuiteTask, _Supervisor
from repro.place.placer import GlobalPlacer, PlacerOptions
from repro.telemetry import (
    EVENT_KINDS,
    MetricsRecorder,
    RunManifest,
    current_recorder,
    iteration_series,
    load_manifest,
    make_run_id,
    read_events,
    recording,
    run_state,
    start_run,
    write_manifest,
)
from repro.telemetry.compare import compare_runs
from repro.telemetry.report import render_report

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: A record cut short by a process killed between two ``write`` calls.
TORN = '{"ts": 1.0, "kind": "iterat'


class TestMetricsRecorder:
    def test_every_event_round_trips_with_required_fields(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with MetricsRecorder(path) as rec:
            rec.event("run_start", iteration=0, design="d", seed=1)
            rec.iteration(0, {"hpwl": 1.5, "overflow": np.float64(0.9)})
            rec.counter("rsmt_rebuilds", np.int64(3), iteration=0)
            rec.event("quarantine", iteration=2, term="timing", bad_entries=4)
            rec.event("recovery", action="checkpoint_rollback",
                      target_iteration=1)
            rec.event("run_end", iteration=5, stop_reason="max_iters")
        # Raw lines are one JSON object each (the schema contract).
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in EVENT_KINDS
            assert isinstance(record["ts"], float)
            # Schema v2: every event also carries a monotonic stamp.
            assert isinstance(record["ts_mono"], float)
            assert "iteration" in record
            assert record["iteration"] is None or isinstance(
                record["iteration"], int
            )
        monos = [json.loads(line)["ts_mono"] for line in lines]
        assert monos == sorted(monos), "ts_mono must be non-decreasing"
        events = read_events(path)
        assert events[1]["metrics"]["overflow"] == pytest.approx(0.9)
        assert events[2]["value"] == 3
        assert events[4]["iteration"] is None

    def test_unknown_kind_rejected(self, tmp_path):
        rec = MetricsRecorder(str(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError, match="unknown event kind"):
            rec.event("bogus")

    def test_truncate_from_drops_only_late_iterations(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        rec = MetricsRecorder(path)
        rec.event("run_start", iteration=0)
        for it in range(6):
            rec.iteration(it, {"hpwl": float(it)})
        rec.event("recovery", action="checkpoint_rollback",
                  fault_iteration=5, target_iteration=3)
        assert rec.truncate_from(3) == 3
        rec.iteration(3, {"hpwl": 30.0})
        rec.close()
        events = read_events(path)
        its = [e["iteration"] for e in events if e["kind"] == "iteration"]
        assert its == [0, 1, 2, 3]
        # The iteration-less recovery record survives truncation.
        assert any(e["kind"] == "recovery" for e in events)
        xs, ys = iteration_series(events)["hpwl"]
        assert xs == [0, 1, 2, 3] and ys[-1] == 30.0

    def test_read_events_drops_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with MetricsRecorder(path) as rec:
            rec.event("run_start", iteration=0)
            rec.iteration(0, {"hpwl": 1.0})
        with open(path, "a") as fh:
            fh.write(TORN)  # writer killed mid-record
        assert [e["kind"] for e in read_events(path)] == \
            ["run_start", "iteration"]
        # Mid-file corruption is never silently skipped.
        with open(path, "w") as fh:
            fh.write("garbage\n")
            fh.write('{"ts": 1.0, "ts_mono": 1.0, "kind": "run_end", '
                     '"iteration": null}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_truncate_from_drops_a_torn_last_record(self, tmp_path):
        """A resume re-opens the stream a killed process left torn."""
        path = str(tmp_path / "events.jsonl")
        with MetricsRecorder(path) as rec:
            rec.event("run_start", iteration=0)
            rec.iteration(0, {"hpwl": 1.0})
        with open(path, "a") as fh:
            fh.write(TORN)
        rec = MetricsRecorder(path, append=True)
        assert rec.truncate_from(1) == 0
        rec.iteration(1, {"hpwl": 2.0})
        rec.close()
        events = read_events(path)
        assert [e["kind"] for e in events] == \
            ["run_start", "iteration", "iteration"]
        assert [e["iteration"] for e in events] == [0, 0, 1]

    def test_recording_arms_and_restores(self, tmp_path):
        assert current_recorder() is None
        with MetricsRecorder(str(tmp_path / "e.jsonl")) as rec:
            with recording(rec):
                assert current_recorder() is rec
            assert current_recorder() is None


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest.create(
            design="d", mode="ours", seed=3, options={"max_iters": 9}
        )
        manifest.final_metrics = {"hpwl": 1.0}
        write_manifest(manifest, str(tmp_path))
        loaded = load_manifest(str(tmp_path))
        assert loaded.design == "d"
        assert loaded.seed == 3
        assert loaded.options == {"max_iters": 9}
        assert loaded.final_metrics == {"hpwl": 1.0}
        assert loaded.schema_version == manifest.schema_version
        assert loaded.python_version and loaded.numpy_version

    def test_make_run_id_unique_and_descriptive(self):
        a = make_run_id("miniblue1", "ours")
        b = make_run_id("miniblue1", "ours")
        assert a != b
        assert a.startswith("miniblue1_ours_")


class TestPlacerIntegration:
    def test_iteration_events_match_trace(self, small_design, tmp_path):
        path = str(tmp_path / "events.jsonl")
        opts = PlacerOptions(max_iters=12, min_iters=2, seed=1)
        with MetricsRecorder(path) as rec, recording(rec):
            result = GlobalPlacer(small_design, opts).run()
        events = read_events(path)
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_end"
        xs, ys = iteration_series(events)["hpwl"]
        it_trace, hp_trace = result.series("hpwl")
        np.testing.assert_array_equal(np.asarray(xs, float), it_trace)
        np.testing.assert_array_equal(np.asarray(ys), hp_trace)
        end = events[-1]
        assert end["stop_reason"] == result.stop_reason
        assert end["iterations"] == result.iterations

    def test_resume_appends_without_duplicates(self, small_design, tmp_path):
        """A resumed run's stream holds each iteration exactly once."""
        cp_dir = tmp_path / "ckpt"
        run_dir = tmp_path / "run"
        opts = dict(max_iters=30, min_iters=5, seed=3)

        session = start_run(
            str(run_dir), design="small", mode="dreamplace", seed=3,
            run_id="orig",
        )
        with recording(session.recorder):
            GlobalPlacer(
                small_design,
                PlacerOptions(
                    checkpoint_every=10, checkpoint_dir=str(cp_dir), **opts
                ),
            ).run()
        session.finalize()

        checkpoint = str(cp_dir / glob.glob1(str(cp_dir), "*iter000020*")[0])
        resumed = start_run(
            str(run_dir / "orig"), design="small", mode="dreamplace",
            seed=3, resume=True,
        )
        assert resumed.run_dir == str(run_dir / "orig")
        with recording(resumed.recorder):
            GlobalPlacer(
                small_design,
                PlacerOptions(resume_from=checkpoint, **opts),
            ).run()
        resumed.finalize()

        events = read_events(os.path.join(resumed.run_dir, "events.jsonl"))
        its = [e["iteration"] for e in events if e["kind"] == "iteration"]
        assert its == sorted(set(its)), "duplicated iterations after resume"
        assert its == list(range(its[-1] + 1))
        # Both the original and the resumed segment are present.
        starts = [e for e in events if e["kind"] == "run_start"]
        assert [s["resumed"] for s in starts] == [False, True]


class TestRunModeTelemetry:
    @pytest.fixture(scope="class")
    def run_pair(self, tmp_path_factory):
        """Two identical-seed + one perturbed-seed instrumented runs."""
        base = tmp_path_factory.mktemp("telemetry")
        design = load_design("miniblue1")

        def one(run_id, seed):
            return run_mode(
                design,
                "ours",
                placer_options=PlacerOptions(
                    max_iters=60, min_iters=5, seed=seed
                ),
                telemetry_dir=str(base),
                run_id=run_id,
            )
        records = {rid: one(rid, seed) for rid, seed in
                   (("a", 0), ("b", 0), ("c", 9))}
        return base, records

    def test_run_mode_produces_manifest_and_stream(self, run_pair):
        base, records = run_pair
        record = records["a"]
        assert record.run_dir == str(base / "a")
        manifest = load_manifest(record.run_dir)
        assert manifest.design == "miniblue1"
        assert manifest.mode == "ours"
        assert manifest.wall_clock_s is not None
        assert manifest.final_metrics["wns"] == pytest.approx(record.wns)
        assert manifest.final_metrics["stop_reason"] == record.stop_reason
        spans = manifest.spans
        assert spans["harness.run_mode"]["calls"] == 1
        assert sum(row["self_s"] for row in spans.values()) == pytest.approx(
            spans["harness.run_mode"]["total_s"]
        )
        assert spans == record.spans
        events = read_events(os.path.join(record.run_dir, "events.jsonl"))
        kinds = {e["kind"] for e in events}
        assert {"run_start", "iteration", "run_end"} <= kinds

    def test_run_path_does_not_import_the_linter(self, tmp_path):
        """A telemetry run stamps no lint state into its manifest, so a
        placement process never imports reprolint."""
        code = (
            "import sys\n"
            "from repro.harness import load_design\n"
            "from repro.harness.runners import run_mode\n"
            "from repro.place.placer import PlacerOptions\n"
            "run_mode(load_design('miniblue1'), 'ours',\n"
            "         placer_options=PlacerOptions(max_iters=5, min_iters=1),\n"
            f"         telemetry_dir={str(tmp_path)!r}, run_id='guard')\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        manifest = load_manifest(str(tmp_path / "guard"))
        assert manifest.final_metrics and "analysis" not in manifest.to_dict()

    def test_report_renders_markdown_and_curves(self, run_pair, tmp_path):
        base, records = run_pair
        out = str(tmp_path / "report")
        markdown = render_report(records["a"].run_dir, out_dir=out)
        assert "# Run report: a" in markdown
        assert "## Spans" in markdown
        assert "harness.run_mode" in markdown
        assert os.path.exists(os.path.join(out, "report.md"))
        assert os.path.exists(os.path.join(out, "curve_hpwl.svg"))

    def test_compare_identical_seeds_ok(self, run_pair):
        base, _ = run_pair
        result = compare_runs(str(base / "a"), str(base / "b"))
        assert result.ok, result.format()
        assert "result: OK" in result.format()

    def test_compare_perturbed_seed_regresses(self, run_pair):
        base, _ = run_pair
        result = compare_runs(str(base / "a"), str(base / "c"))
        assert not result.ok
        text = result.format()
        assert "REGRESSION" in text

    def test_manifest_of_an_older_run_still_loads(self, run_pair, tmp_path):
        base, _ = run_pair
        with open(base / "a" / "manifest.json") as handle:
            payload = json.load(handle)
        # Before per-layer stats, manifests carried a nested span tree.
        payload["span_tree"] = {"name": "run", "children": []}
        del payload["spans"]
        old = tmp_path / "old"
        old.mkdir()
        (old / "manifest.json").write_text(json.dumps(payload))
        assert load_manifest(str(old)).spans is None
        result = compare_runs(str(old), str(base / "b"))
        assert result.ok, result.format()
        assert any("present in only one run" in n for n in result.notes)

    def test_compare_span_rtol_gates_timing(self, run_pair):
        base, _ = run_pair
        # Wall-clock never reproduces at rtol=0 between two real runs.
        result = compare_runs(str(base / "a"), str(base / "b"),
                              span_rtol=0.0)
        assert any("span" in r for r in result.regressions)


class TestSeriesKeyError:
    def test_unknown_series_key_raises_with_available_keys(
        self, small_design
    ):
        result = GlobalPlacer(
            small_design, PlacerOptions(max_iters=4, min_iters=1)
        ).run()
        with pytest.raises(KeyError, match="available keys.*hpwl"):
            result.series("tns_smoothed")


RUN_ID = "miniblue1_ours_s0"


def _start(base, run_id=RUN_ID, iteration=0, resumed=False):
    """A run directory whose stream holds one ``run_start``."""
    session = start_run(
        str(base), design="miniblue1", mode="ours", seed=0, run_id=run_id,
        resume=resumed,
    )
    session.recorder.event(
        "run_start", iteration=iteration, design="miniblue1", seed=0,
        max_iters=600, resumed=resumed,
    )
    return session


_CHILD_SCRIPT = """
import sys, time
from repro.telemetry.session import start_run

session = start_run(
    sys.argv[1], design="miniblue1", mode="ours", seed=0, run_id=sys.argv[2]
)
session.recorder.event(
    "run_start", iteration=0, design="miniblue1", seed=0, max_iters=600,
    resumed=False,
)
session.recorder.iteration(412, {"hpwl": 1.0})
print("ready", flush=True)
time.sleep(600)
"""


class TestRunState:
    """Where an unfinalized run was last seen, read back from its
    directory by ``report`` and by the supervisor's quarantine error."""

    def test_phases_setup_place_sta(self, tmp_path):
        session = start_run(
            str(tmp_path), design="miniblue1", mode="ours", seed=0,
            run_id=RUN_ID,
        )
        state = run_state(session.run_dir)
        assert (state.phase, state.iteration) == ("setup", None)
        session.recorder.event(
            "run_start", iteration=0, design="miniblue1", seed=0,
            max_iters=600, resumed=False,
        )
        assert run_state(session.run_dir).phase == "setup"
        session.recorder.iteration(0, {"hpwl": 1.0})
        assert run_state(session.run_dir).phase == "place"
        session.recorder.event(
            "run_end", iteration=0, stop_reason="max_iters", iterations=1,
            hpwl=1.0, overflow=0.5,
        )
        assert run_state(session.run_dir).phase == "sta"
        session.finalize()
        assert run_state(str(tmp_path / "no-such-run")) is None

    def test_resumed_stream_uses_the_last_run_start(self, tmp_path):
        session = _start(tmp_path)
        session.recorder.iteration(20, {"hpwl": 1.0})
        session.finalize()
        resumed = _start(session.run_dir, iteration=10, resumed=True)
        assert resumed.run_dir == session.run_dir
        state = run_state(resumed.run_dir)
        assert (state.phase, state.iteration) == ("setup", None)
        resumed.recorder.iteration(10, {"hpwl": 1.0})
        resumed.recorder.close()
        assert run_state(resumed.run_dir).where() == "at iteration 10 in place"

    def test_report_of_an_unfinalized_run_prints_last_seen(
        self, tmp_path, capsys
    ):
        session = _start(tmp_path / "tel")
        session.recorder.iteration(411, {"hpwl": 2.0, "overflow": 0.5})
        session.recorder.iteration(412, {"hpwl": 1.0, "overflow": 0.4})
        session.recorder.close()
        with open(os.path.join(session.run_dir, "events.jsonl"), "a") as fh:
            fh.write(TORN)
        out = str(tmp_path / "report")
        assert harness_main(["report", session.run_dir, "--out", out]) == 0
        markdown = capsys.readouterr().out
        assert "(run not finalized)\nlast seen at iteration 412 in place" \
            in markdown
        assert "## Events (3 total)" in markdown
        assert os.path.exists(os.path.join(out, "curve_hpwl.svg"))

    def test_last_seen_formats(self, tmp_path):
        last_seen = _Supervisor._last_seen
        task = SuiteTask(
            design="miniblue1", mode="ours", seed=0,
            telemetry_dir=str(tmp_path),
        )
        assert last_seen(SuiteTask(design="miniblue1", mode="ours")) == ""
        assert last_seen(task) == "", "the run never started"
        start_run(
            str(tmp_path), design="miniblue1", mode="ours", seed=0,
            run_id=task.run_id,
        ).recorder.close()
        assert last_seen(task).startswith("; last seen in setup, silent for")

    def test_sigkilled_task_is_quoted_by_the_supervisor(self, tmp_path):
        """SIGKILL a run mid-placement: its stream is the post-mortem."""
        base = str(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, base, RUN_ID],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
            proc.stdout.close()
        task = SuiteTask(
            design="miniblue1", mode="ours", seed=0, telemetry_dir=base
        )
        assert _Supervisor._last_seen(task).startswith(
            "; last seen at iteration 412 in place, silent for"
        )
