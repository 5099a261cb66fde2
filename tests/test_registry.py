"""The run registry is the telemetry directory itself.

Each run's ``manifest.json`` and ``events.jsonl`` are its only live
record; :func:`repro.telemetry.session.run_state` reads them back for
``status`` and for the supervisor's post-mortem:

- a run is listed from its start until its manifest is finalized,
  cleanly or by an exception;
- its phase is ``setup`` until the first iteration after the last
  ``run_start``, ``place`` after it, ``sta`` once ``run_end`` is written;
- a SIGKILL'd process leaves its stream behind: ``status`` flags the run
  as dead at its last iteration, and the supervisor quotes where it was;
- stale detection distinguishes a hung-but-alive run from a dead one;
- ``run_mode`` leaves the run directory and nothing else.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro.harness.supervisor as supervisor_mod
from repro.harness.__main__ import main as harness_main
from repro.harness.runners import run_mode
from repro.harness.supervisor import SuiteTask
from repro.place.placer import PlacerOptions
from repro.telemetry.session import (
    DEFAULT_STALE_AFTER_S,
    pid_alive,
    run_state,
    start_run,
)

RUN_ID = "miniblue1_ours_s0"


def _start(base, pid=None, run_id=RUN_ID):
    """A run directory whose stream holds one ``run_start``."""
    session = start_run(
        str(base), design="miniblue1", mode="ours", seed=0, run_id=run_id
    )
    session.recorder.event(
        "run_start", iteration=0, design="miniblue1", seed=0,
        max_iters=600, resumed=False,
        pid=os.getpid() if pid is None else pid,
    )
    return session


def _started(base, pid=None):
    """The directory of a started run whose process left it in place."""
    session = _start(base, pid=pid)
    session.recorder.close()
    return session.run_dir


def _status_json(base, capsys):
    assert harness_main(["status", str(base), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    assert not pid_alive(proc.pid)
    return proc.pid


class TestLifecycle:
    def test_register_beat_clean_exit_removes(self, tmp_path, capsys):
        session = _start(tmp_path)
        session.recorder.iteration(3, {"hpwl": 1.0})
        (entry,) = _status_json(tmp_path, capsys)
        assert entry["run_id"] == RUN_ID
        assert (entry["phase"], entry["iteration"]) == ("place", 3)
        assert entry["pid"] == os.getpid()
        session.finalize()
        assert _status_json(tmp_path, capsys) == []

    def test_close_without_remove_keeps_post_mortem_record(self, tmp_path):
        """An unfinalized run keeps its last position on disk."""
        session = _start(tmp_path)
        session.recorder.iteration(412, {"hpwl": 1.0})
        session.recorder.close()
        state = run_state(session.run_dir)
        assert state.active
        assert state.where() == "at iteration 412 in place"

    def test_iteration_rate_uses_first_iteration_anchor(self, tmp_path):
        session = _start(tmp_path)
        session.recorder.iteration(10, {"hpwl": 1.0})
        assert run_state(session.run_dir).iteration_rate is None
        session.recorder.iteration(30, {"hpwl": 1.0})
        session.recorder.close()
        path = os.path.join(session.run_dir, "events.jsonl")
        with open(path) as handle:
            events = [json.loads(line) for line in handle]
        events[1]["ts_mono"] -= 2.0  # pretend the anchor is 2 s older
        with open(path, "w") as handle:
            handle.writelines(json.dumps(e) + "\n" for e in events)
        state = run_state(session.run_dir)
        assert state.anchor_iteration == 10
        assert state.iteration_rate == pytest.approx(10.0, rel=0.2)

    def test_phases_setup_place_sta(self, tmp_path):
        session = start_run(
            str(tmp_path), design="miniblue1", mode="ours", seed=0,
            run_id=RUN_ID,
        )
        state = run_state(session.run_dir)
        assert (state.phase, state.pid, state.iteration) == (
            "setup", None, None
        )
        session.recorder.event(
            "run_start", iteration=0, design="miniblue1", seed=0,
            max_iters=600, resumed=False, pid=os.getpid(),
        )
        assert run_state(session.run_dir).phase == "setup"
        session.recorder.iteration(0, {"hpwl": 1.0})
        assert run_state(session.run_dir).phase == "place"
        session.recorder.event(
            "run_end", iteration=0, stop_reason="max_iters", iterations=1,
            hpwl=1.0, overflow=0.5,
        )
        state = run_state(session.run_dir)
        assert (state.active, state.phase) == (True, "sta")
        session.finalize()
        assert not run_state(session.run_dir).active

    def test_exception_finalized_run_is_not_listed(self, tmp_path, capsys):
        session = _start(tmp_path)
        session.finalize(final_metrics={"stop_reason": "exception"})
        assert _status_json(tmp_path, capsys) == []
        assert harness_main(["status", str(tmp_path)]) == 0
        assert "(no active runs)" in capsys.readouterr().out

    def test_resumed_stream_uses_the_last_run_start(self, tmp_path):
        session = _start(tmp_path, pid=_dead_pid())
        session.recorder.iteration(20, {"hpwl": 1.0})
        session.finalize()
        resumed = start_run(
            session.run_dir, design="miniblue1", mode="ours", seed=0,
            resume=True,
        )
        state = run_state(resumed.run_dir)
        assert state.active, "a resumed run is in flight again"
        resumed.recorder.event(
            "run_start", iteration=10, design="miniblue1", seed=0,
            max_iters=600, resumed=True, pid=os.getpid(),
        )
        state = run_state(resumed.run_dir)
        assert (state.pid, state.phase, state.iteration) == (
            os.getpid(), "setup", None
        )
        assert state.state() == "live"
        resumed.recorder.iteration(10, {"hpwl": 1.0})
        resumed.recorder.close()
        assert run_state(resumed.run_dir).where() == "at iteration 10 in place"


class TestStates:
    def test_fresh_record_with_live_pid_is_live(self, tmp_path):
        assert run_state(_started(tmp_path)).state() == "live"

    def test_old_beat_with_live_pid_is_stale_not_garbage(
        self, tmp_path, capsys
    ):
        state = run_state(_started(tmp_path))
        now = state.ts + DEFAULT_STALE_AFTER_S + 1.0
        assert state.state(now=now) == "stale"
        # A hung run stays listed: it is evidence, not trash.
        assert [e["run_id"] for e in _status_json(tmp_path, capsys)] == [
            RUN_ID
        ]

    def test_dead_pid_is_dead_and_stays_listed(self, tmp_path, capsys):
        _started(tmp_path, pid=_dead_pid())
        (entry,) = _status_json(tmp_path, capsys)
        assert entry["state"] == "dead"

    def test_no_pid_yet_is_judged_by_age(self, tmp_path):
        session = start_run(
            str(tmp_path), design="miniblue1", mode="ours", seed=0,
            run_id=RUN_ID,
        )
        session.recorder.close()
        state = run_state(session.run_dir)
        assert state.pid is None
        assert state.state() == "live"
        assert state.state(now=state.ts + DEFAULT_STALE_AFTER_S + 1.0) == (
            "stale"
        )


_CHILD_SCRIPT = """
import os, sys, time
from repro.telemetry.session import start_run

session = start_run(
    sys.argv[1], design="miniblue1", mode="ours", seed=0, run_id=sys.argv[2]
)
session.recorder.event(
    "run_start", iteration=0, design="miniblue1", seed=0, max_iters=600,
    resumed=False, pid=os.getpid(),
)
session.recorder.iteration(412, {"hpwl": 1.0})
print("ready", flush=True)
time.sleep(600)
"""


class TestSigkilledRun:
    def test_sigkill_leaves_state_status_flags_dead_supervisor_quotes(
        self, tmp_path, capsys
    ):
        """SIGKILL a run mid-placement: its stream is the post-mortem,
        ``status`` shows it dead at iteration 412, and the supervisor
        quotes where it was."""
        base = str(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
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

        assert harness_main(["status", base]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert RUN_ID in row and " 412 " in row and row.endswith("dead")

        task = SuiteTask(
            design="miniblue1", mode="ours", seed=0, telemetry_dir=base
        )
        message = supervisor_mod._Supervisor._last_seen(task)
        assert message.startswith(
            "; last seen at iteration 412 in place, silent for"
        )

    def test_last_seen_formats(self, tmp_path):
        last_seen = supervisor_mod._Supervisor._last_seen
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


class TestRunModeIntegration:
    def test_run_registers_beats_and_cleans_up(
        self, small_design, tmp_path, capsys
    ):
        base = str(tmp_path / "tel")
        record = run_mode(
            small_design,
            "dreamplace",
            placer_options=PlacerOptions(max_iters=8, min_iters=2, seed=0),
            telemetry_dir=base,
            run_id="lifecycle",
        )
        run_dir = os.path.join(base, "lifecycle")
        with open(os.path.join(run_dir, "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        # The run named its process, progressed, and the clean finalize
        # took it off the active list.
        assert events[0]["kind"] == "run_start"
        assert events[0]["pid"] == os.getpid()
        assert any(e["kind"] == "iteration" for e in events)
        state = run_state(run_dir)
        assert not state.active
        assert state.pid == os.getpid()
        assert _status_json(base, capsys) == []
        # The manifest rolled up the run's resource usage (POSIX only).
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        if record.resources is not None:
            assert manifest["resources"]["peak_rss_bytes"] > 0
            assert manifest["resources"]["cpu_user_s"] >= 0.0

    def test_run_leaves_only_manifest_and_events(self, small_design, tmp_path):
        base = tmp_path / "tel"
        run_mode(
            small_design,
            "dreamplace",
            placer_options=PlacerOptions(max_iters=4, min_iters=2, seed=0),
            telemetry_dir=str(base),
            run_id="only",
        )
        assert os.listdir(base) == ["only"]
        assert sorted(os.listdir(base / "only")) == [
            "events.jsonl", "manifest.json"
        ]

    def test_torn_registry_record_reads_as_absent(self, tmp_path):
        """A torn trailing event (the writer caught mid-write) is skipped."""
        session = _start(tmp_path)
        session.recorder.iteration(7, {"hpwl": 1.0})
        session.recorder.close()
        with open(os.path.join(session.run_dir, "events.jsonl"), "a") as fh:
            fh.write('{"ts": 1.0, "kind": "iteration", "iter')
        state = run_state(session.run_dir)
        assert state.iteration == 7
        assert run_state(str(tmp_path / "no-such-run")) is None
