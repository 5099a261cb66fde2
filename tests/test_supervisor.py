"""The suite runner: every task runs once, a failed task is quarantined.

The promises of the process boundary:

- a SIGKILL'd worker quarantines exactly its in-flight task as ``crash``;
  every other task's metrics equal a fault-free run byte for byte;
- a task past ``task_timeout`` is killed and quarantined as ``timeout`` -
  also at ``jobs=1`` and in a one-task suite, since a set timeout always
  means a worker; so is the task of a worker that hangs before it
  reports the start (``STARTUP_TIMEOUT``), timeout or not; with
  telemetry on, the error says where the run was last seen;
- a task that raises is quarantined as ``exception`` and the suite
  completes;
- a clean suite leaves no trace of supervision;
- Table 3 refuses a quarantined cell instead of printing a NaN row;
- duplicate tasks are refused before any work starts;
- the CLI exits 1 on a quarantine and 2 on duplicate run ids, and a
  failure of the supervisor itself reaches it as one typed line.

Runs use tiny iteration counts: these tests exercise scheduling, not
placement quality.
"""

import json
import os
import time

import numpy as np
import pytest

import repro.harness.supervisor as supervisor_mod
from repro.__main__ import main
from repro.harness.supervisor import (
    DuplicateTaskError,
    SupervisorError,
    SuiteTask,
    run_tasks,
    suite_metrics,
    write_suite_manifest,
)

#: Far below what a 150-iteration task takes, so the task is always past
#: it (the timeout runs from the task's start, not from the worker's).
TINY_TIMEOUT = 0.05
#: Extra start-up of a slow worker, and a timeout its task fits in with
#: room to spare but the start-up alone would overrun.
SLOW_START, ROOMY_TIMEOUT = 1.5, 1.0
#: A worker hung in start-up, and the start-up bound the test gives it.
HUNG_START, TINY_STARTUP = 20.0, 1.0
#: Long past the start of a telemetry run's directory (the manifest is
#: written before the first iteration), far short of the task below.
MID_RUN_TIMEOUT = 1.5


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Keep these tests hermetic: each sets its own REPRO_INJECT_FAULT."""
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


def _tasks(n=3, max_iters=6, telemetry_dir=None):
    designs = ["miniblue4", "miniblue18", "miniblue4"]
    seeds = [0, 0, 1]
    return [
        SuiteTask(
            design=designs[i],
            mode="ours",
            seed=seeds[i],
            max_iters=max_iters,
            telemetry_dir=telemetry_dir,
        )
        for i in range(n)
    ]


def _slow_start_worker(*args):
    """A suite worker that takes SLOW_START seconds longer to warm up."""
    time.sleep(SLOW_START)
    supervisor_mod._worker_main(*args)


def _hung_start_worker(*args):
    """A suite worker that hangs HUNG_START seconds before it warms up."""
    time.sleep(HUNG_START)
    supervisor_mod._worker_main(*args)


def _assert_records_identical(a, b):
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.x, rb.x)
        np.testing.assert_array_equal(ra.y, rb.y)
        assert (ra.wns, ra.tns, ra.hpwl) == (rb.wns, rb.tns, rb.hpwl)


def _metrics_json(tasks, records):
    return json.dumps(suite_metrics(tasks, records), sort_keys=True)


class TestZeroFaultByteIdentity:
    def test_no_events_file_without_interventions(self, tmp_path):
        tasks = _tasks(telemetry_dir=str(tmp_path))
        records = run_tasks(tasks, 2)
        path = write_suite_manifest(str(tmp_path), tasks, records, jobs=2)
        payload = json.loads(open(path).read())
        assert not any("quarantined" in run for run in payload["runs"])
        assert "supervision" not in payload
        assert not (tmp_path / "supervisor_events.jsonl").exists()


class TestCrashIsolation:
    def test_sigkilled_worker_quarantines_only_its_task(self, monkeypatch):
        """SIGKILL task 1's worker: exactly that task is quarantined as
        ``crash``, and the others match a fault-free run byte for byte."""
        tasks = _tasks()
        clean = run_tasks(tasks, 2)
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill:1")
        records = run_tasks(tasks, jobs=2)
        assert [r.quarantined for r in records] == [False, True, False]
        victim = records[1]
        assert victim.stop_reason == "quarantined:crash"
        assert victim.quarantine["failure"] == "crash"
        assert "died mid-task" in victim.quarantine["error"]
        _assert_records_identical(
            [clean[0], clean[2]], [records[0], records[2]]
        )
        assert _metrics_json(tasks, records) == _metrics_json(
            [tasks[0], tasks[2]], [clean[0], clean[2]]
        )


class TestTimeout:
    def test_hung_task_is_killed_and_quarantined(self):
        records = run_tasks(
            _tasks(2, max_iters=150), jobs=2, task_timeout=TINY_TIMEOUT
        )
        for record in records:
            assert record.stop_reason == "quarantined:timeout"
            assert "wall-clock timeout" in record.quarantine["error"]

    def test_timeout_quotes_where_the_run_was_last_seen(self, tmp_path):
        """A telemetry task killed mid-run: the quarantine error says
        where its run directory last saw it."""
        task = SuiteTask(
            design="miniblue4",
            mode="dreamplace",
            max_iters=100000,
            telemetry_dir=str(tmp_path),
            extra_placer_options={"stop_overflow": 0.0},
        )
        (record,) = run_tasks([task], jobs=1, task_timeout=MID_RUN_TIMEOUT)
        assert record.stop_reason == "quarantined:timeout"
        assert "last seen" in record.quarantine["error"]

    def test_one_task_suite_honours_the_timeout(self):
        """A one-task suite at jobs=2 still runs its task on a worker."""
        task = SuiteTask(design="miniblue1", mode="ours", max_iters=150)
        (record,) = run_tasks([task], jobs=2, task_timeout=TINY_TIMEOUT)
        assert record.stop_reason == "quarantined:timeout"

    def test_jobs1_honours_the_timeout(self):
        """At jobs=1 a set timeout moves the tasks onto one worker."""
        records = run_tasks(
            _tasks(2, max_iters=150), jobs=1, task_timeout=TINY_TIMEOUT
        )
        assert [r.stop_reason for r in records] == [
            "quarantined:timeout"
        ] * 2

    def test_slow_worker_start_is_not_the_tasks(self, monkeypatch):
        """The timeout runs from the task's start: a worker slow to warm
        up does not get a task that fits in the timeout quarantined."""
        monkeypatch.setattr(supervisor_mod, "_worker_main", _slow_start_worker)
        (record,) = run_tasks(_tasks(1), jobs=1, task_timeout=ROOMY_TIMEOUT)
        assert not record.quarantined

    def test_worker_hung_before_it_reports_is_killed(self, monkeypatch):
        """A worker that never reports the start (hung in start-up or
        preload) has a deadline of its own, with or without a task
        timeout: its task is quarantined, the suite does not block."""
        monkeypatch.setattr(supervisor_mod, "STARTUP_TIMEOUT", TINY_STARTUP)
        monkeypatch.setattr(supervisor_mod, "_worker_main", _hung_start_worker)
        t0 = time.monotonic()
        (record,) = run_tasks(_tasks(1), jobs=2)
        assert time.monotonic() - t0 < HUNG_START
        assert record.stop_reason == "quarantined:timeout"
        assert "did not start the task" in record.quarantine["error"]

    def test_generous_timeout_changes_no_result(self):
        tasks = _tasks(2)
        in_process = run_tasks(tasks, jobs=1)
        on_worker = run_tasks(tasks, jobs=1, task_timeout=600.0)
        assert not any(r.quarantined for r in on_worker)
        _assert_records_identical(in_process, on_worker)


class TestQuarantine:
    def test_poisoned_task_quarantined_suite_completes(self):
        tasks = _tasks(3)
        tasks[0] = SuiteTask(design="miniblue4", mode="bogus", max_iters=6)
        records = run_tasks(tasks, jobs=2)
        bad, ok1, ok2 = records
        assert bad.quarantined
        assert bad.stop_reason == "quarantined:exception"
        assert "ValueError: unknown mode 'bogus'" in bad.quarantine["error"]
        assert np.isnan(bad.wns) and bad.x.size == 0
        assert not ok1.quarantined and not ok2.quarantined
        # Quarantined placeholders are excluded from suite metrics (their
        # NaNs would poison the deterministic JSON).
        metrics = suite_metrics(tasks, records)
        assert "bogus" not in metrics["miniblue4"]
        assert "s1" in metrics["miniblue4"]["ours"]

    def test_suite_manifest_records_quarantine(self, tmp_path):
        tasks = _tasks(2, telemetry_dir=str(tmp_path))
        tasks[0] = SuiteTask(
            design="miniblue4", mode="bogus", telemetry_dir=str(tmp_path)
        )
        records = run_tasks(tasks, jobs=1)
        path = write_suite_manifest(str(tmp_path), tasks, records, jobs=1)
        payload = json.loads(open(path).read())
        bad, ok = payload["runs"]
        assert bad["run_id"] == "miniblue4_bogus_s0"
        assert bad["quarantined"] is True
        assert bad["final_metrics"] is None
        assert bad["quarantine"]["failure"] == "exception"
        assert "quarantined" not in ok

    def test_table3_refuses_a_nan_row(self):
        from repro.harness.table3 import run_table3

        with pytest.raises(SupervisorError) as info:
            run_table3(
                designs=["miniblue4"], modes=("bogus",), max_iters=6,
                verbose=False,
            )
        assert info.value.run_id == "miniblue4_bogus_s0"
        assert "miniblue4_bogus_s0" in str(info.value)
        assert info.value.failure == "exception"


class TestSupervisorError:
    def test_summary_is_one_actionable_line(self):
        exc = SupervisorError(
            "Table 3 cell miniblue18_ours_s0 quarantined: worker pid 7 "
            "died mid-task",
            failure="crash",
            run_id="miniblue18_ours_s0",
        )
        summary = exc.summary()
        assert "\n" not in summary
        assert summary.startswith("SupervisorError: ")
        assert "miniblue18_ours_s0" in summary
        assert "crash" in summary


class TestDuplicateTasks:
    def test_refused_before_any_worker_is_spawned(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started despite duplicate tasks")

        monkeypatch.setattr(supervisor_mod, "_spawn_worker", forbidden)
        monkeypatch.setattr(supervisor_mod, "ensure_cached", forbidden)
        monkeypatch.setattr(supervisor_mod, "_execute_task", forbidden)
        tasks = [SuiteTask(design="miniblue4", mode="ours")] * 2 + [
            SuiteTask(design="miniblue18", mode="ours")
        ]
        with pytest.raises(
            DuplicateTaskError, match="miniblue4_ours_s0"
        ) as info:
            run_tasks(tasks, 2)
        assert isinstance(info.value, ValueError)
        assert "miniblue18" not in str(info.value)

    def test_cli_exits_2_with_the_duplicate_run_ids(self, tmp_path, capsys):
        status = main(
            [
                "suite", "--designs", "miniblue4", "--seeds", "0", "0",
                "--jobs", "2", "--telemetry", str(tmp_path),
            ]
        )
        assert status == 2
        assert "miniblue4_ours_s0" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestCliSupervision:
    def test_quarantine_exits_nonzero_with_summary(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        status = main(
            [
                "suite", "--designs", "miniblue4", "--seeds", "0",
                "--max-iters", "150", "--task-timeout", str(TINY_TIMEOUT),
                "--telemetry", str(tmp_path), "--metrics-out", str(metrics),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "QUARANTINED (timeout" in err
        assert "1 task(s) quarantined" in err
        # Completed results are still written; the quarantined run is
        # named in the suite manifest.
        assert json.loads(metrics.read_text()) == {}
        payload = json.loads((tmp_path / "suite_manifest.json").read_text())
        assert payload["runs"][0]["run_id"] == "miniblue4_ours_s0"
        assert payload["runs"][0]["quarantine"]["failure"] == "timeout"

    def test_supervisor_failure_is_a_typed_one_liner(
        self, monkeypatch, capsys
    ):
        real = supervisor_mod._Supervisor._finish

        def fail_second(self, index, record):
            if index == 1:
                raise RuntimeError("bookkeeping\nexploded")
            real(self, index, record)

        monkeypatch.setattr(supervisor_mod._Supervisor, "_finish", fail_second)
        status = main(
            [
                "suite", "--designs", "miniblue4", "--seeds", "0", "1",
                "--max-iters", "6",
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (summary,) = err.strip().splitlines()
        assert summary.startswith("SupervisorError: ")
        assert "RuntimeError: bookkeeping exploded" in summary

    def test_other_value_errors_are_not_usage_errors(self, monkeypatch):
        def broken_generator(*args, **kwargs):
            raise ValueError("generator bug")

        monkeypatch.setattr(supervisor_mod, "ensure_cached", broken_generator)
        with pytest.raises(ValueError, match="generator bug"):
            main(["suite", "--designs", "miniblue4", "--max-iters", "6"])
