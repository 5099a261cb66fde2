"""Supervised suite execution: crash isolation, retry, quarantine.

The acceptance scenarios of the process-boundary robustness layer:

- a fault-free suite leaves no supervision trace (no provenance, no
  supervisor event file);
- a SIGKILL'd worker costs exactly its in-flight task one retry - every
  other task's metrics stay byte-identical and the suite completes;
- a hung worker is killed at the task timeout and its task retried;
- a persistently failing task is quarantined after ``max_retries`` and
  the suite still completes, with the quarantine recorded in telemetry;
- an unbuildable pool degrades to serial in-process execution;
- a failure of the supervisor itself raises a typed error but salvages
  completed runs into a partial suite manifest;
- duplicate tasks are refused before any work starts.

Runs use tiny iteration counts - supervision must be invariant to the
workload, and these tests exercise scheduling, not placement quality.
"""

import json
import os

import numpy as np
import pytest

import repro.harness.supervisor as supervisor_mod
from repro.__main__ import main
from repro.harness.supervisor import (
    SUITE_MANIFEST_FILENAME,
    DuplicateTaskError,
    SupervisorError,
    SupervisorOptions,
    SuiteTask,
    run_tasks,
    suite_metrics,
    write_suite_manifest,
)


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


def _assert_records_identical(a, b):
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.x, rb.x)
        np.testing.assert_array_equal(ra.y, rb.y)
        assert (ra.wns, ra.tns, ra.hpwl) == (rb.wns, rb.tns, rb.hpwl)


class TestZeroFaultByteIdentity:
    def test_no_events_file_without_interventions(self, tmp_path):
        tasks = _tasks(telemetry_dir=str(tmp_path))
        _, provenance = run_tasks(tasks, 2)
        assert provenance is None  # nothing intervened -> no provenance
        assert not (tmp_path / "supervisor_events.jsonl").exists()


class TestCrashRecovery:
    def test_sigkilled_worker_retried_others_byte_identical(
        self, monkeypatch
    ):
        """Satellite: SIGKILL one worker mid-task; the suite completes,
        non-faulted tasks are byte-identical, the victim retried once."""
        tasks = _tasks()
        clean, _ = run_tasks(tasks, 2)
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill:1")
        records, result = run_tasks(tasks, jobs=2)
        _assert_records_identical(clean, records)
        assert [r.attempts for r in records] == [1, 2, 1]
        assert result["worker_respawns"] == 1
        assert result["quarantined"] == []
        (outcome,) = result["tasks"]
        assert outcome["run_id"] == "miniblue18_ours_s0"
        assert outcome["failures"][0]["failure"] == "crash"

    def test_timeout_kills_hung_worker_and_retries(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_hang:0@60")
        tasks = _tasks(2)
        records, result = run_tasks(
            tasks,
            jobs=2,
            options=SupervisorOptions(task_timeout=5.0),
        )
        assert records[0].attempts == 2 and records[1].attempts == 1
        (outcome,) = result["tasks"]
        assert outcome["failures"][0]["failure"] == "timeout"

    def test_serial_path_retries_task_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "task_exc:0")
        records, result = run_tasks(
            _tasks(2),
            jobs=1,
            options=SupervisorOptions(backoff_base=0.001),
        )
        assert [r.attempts for r in records] == [2, 1]
        assert result["retries"] == 1

    def test_bundle_corruption_classified_and_healed(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "bundle_corrupt_midrun:0")
        records, result = run_tasks(
            _tasks(1),
            jobs=1,
            cache_dir=str(tmp_path),
            options=SupervisorOptions(backoff_base=0.001),
        )
        assert records[0].attempts == 2
        (outcome,) = result["tasks"]
        assert outcome["failures"][0]["failure"] == "cache-corrupt"
        # The retry re-read the corrupted file and regenerated it.
        assert records[0].design_cache["corrupt_recovered"]


class TestQuarantine:
    def test_poisoned_task_quarantined_suite_completes(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "task_exc:0@99")
        tasks = _tasks(3, telemetry_dir=str(tmp_path))
        records, result = run_tasks(
            tasks,
            jobs=2,
            options=SupervisorOptions(
                max_retries=1, backoff_base=0.001
            ),
        )
        bad, ok1, ok2 = records
        assert bad.quarantined and bad.attempts == 2
        assert bad.stop_reason == "quarantined:exception"
        assert np.isnan(bad.wns) and bad.x.size == 0
        assert not ok1.quarantined and not ok2.quarantined
        assert result["quarantined"] == ["miniblue4_ours_s0"]
        # Quarantined placeholders are excluded from suite metrics (their
        # NaNs would poison the deterministic JSON).
        metrics = suite_metrics(tasks, records)
        assert "s0" not in metrics.get("miniblue4", {}).get("ours", {})
        assert "s1" in metrics["miniblue4"]["ours"]
        # ... and the events stream recorded the retry + quarantine.
        events = [
            json.loads(line)
            for line in (tmp_path / "supervisor_events.jsonl")
            .read_text()
            .splitlines()
        ]
        kinds = [e["kind"] for e in events]
        assert "task_retry" in kinds and "task_quarantine" in kinds
        quarantine = next(e for e in events if e["kind"] == "task_quarantine")
        assert quarantine["run_id"] == "miniblue4_ours_s0"
        assert quarantine["attempts"] == 2

    def test_suite_manifest_records_quarantine(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "task_exc:0@99")
        tasks = _tasks(2, telemetry_dir=str(tmp_path))
        records, supervision = run_tasks(
            tasks,
            jobs=1,
            options=SupervisorOptions(
                max_retries=1, backoff_base=0.001
            ),
        )
        path = write_suite_manifest(
            str(tmp_path), tasks, records, jobs=1, supervision=supervision
        )
        payload = json.loads(open(path).read())
        entry = payload["runs"][0]
        assert entry["quarantined"] is True
        assert entry["final_metrics"] is None
        assert entry["quarantine"]["failures"][0]["failure"] == "exception"
        assert payload["supervision"]["quarantined"] == ["miniblue4_ours_s0"]

    def test_table3_refuses_a_nan_row(self, monkeypatch):
        from repro.harness.table3 import run_table3

        monkeypatch.setenv("REPRO_INJECT_FAULT", "task_exc:0@99")
        with pytest.raises(SupervisorError) as info:
            run_table3(
                designs=["miniblue4"], modes=("ours",), max_iters=6,
                verbose=False,
            )
        assert info.value.run_id == "miniblue4_ours_s0"
        assert "miniblue4_ours_s0" in str(info.value)
        assert info.value.failure == "exception"


class TestDegradation:
    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(supervisor_mod, "_spawn_worker", boom)
        tasks = _tasks(2)
        clean, _ = run_tasks(tasks, 1)
        records, result = run_tasks(tasks, jobs=2)
        _assert_records_identical(clean, records)
        assert result is not None and result["degraded_to_serial"]


def _fail_second_registration(monkeypatch):
    """Make the supervisor's own bookkeeping blow up on the second task."""
    real = supervisor_mod._Supervisor._register_success

    def fail_second(self, index, record):
        if index == 1:
            raise RuntimeError("bookkeeping\nexploded")
        real(self, index, record)

    monkeypatch.setattr(
        supervisor_mod._Supervisor, "_register_success", fail_second
    )


class TestUnsupervisedSalvage:
    """A failure of the supervisor itself (not of a task) is terminal."""

    def test_task_failure_writes_partial_manifest(
        self, monkeypatch, tmp_path
    ):
        _fail_second_registration(monkeypatch)
        tasks = _tasks(2, telemetry_dir=str(tmp_path))
        with pytest.raises(SupervisorError) as info:
            run_tasks(tasks, 1)
        exc = info.value
        summary = exc.summary()
        assert "\n" not in summary
        assert "RuntimeError: bookkeeping exploded" in summary
        assert "1 completed run(s) salvaged" in summary
        assert [i for i, _ in exc.completed] == [0]
        assert exc.partial_manifest == str(
            tmp_path / SUITE_MANIFEST_FILENAME
        )
        payload = json.loads(open(exc.partial_manifest).read())
        assert payload["partial"] is True
        assert payload["n_runs"] == 1
        assert payload["runs"][0]["run_id"] == "miniblue4_ours_s0"

    def test_summary_is_one_actionable_line(self):
        exc = SupervisorError(
            "worker pid 7 died mid-task",
            failure="crash",
            task_index=2,
            run_id="miniblue18_ours_s0",
            completed=[(0, object())],
        )
        summary = exc.summary()
        assert "\n" not in summary
        assert "SupervisorError" in summary
        assert "miniblue18_ours_s0" in summary
        assert "crash" in summary
        assert "1 completed run(s) salvaged" in summary


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


class TestBackoffDeterminism:
    def test_schedule_is_pure_function_of_seed_task_attempt(self):
        opts = SupervisorOptions(backoff_seed=7)
        again = SupervisorOptions(backoff_seed=7)
        for task in range(3):
            for attempt in range(1, 4):
                assert opts.backoff_delay(task, attempt) == again.backoff_delay(
                    task, attempt
                )
        assert opts.backoff_delay(0, 1) != SupervisorOptions(
            backoff_seed=8
        ).backoff_delay(0, 1)

    def test_exponential_growth_and_cap(self):
        opts = SupervisorOptions(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
        )
        delays = [opts.backoff_delay(0, n) for n in range(1, 6)]
        # Jitter is +/-20%, so successive uncapped delays still grow.
        assert delays[1] > delays[0]
        assert all(d <= 0.5 * 1.2 for d in delays)
        assert all(d >= 0.1 * 0.8 for d in delays)


class TestCliSupervision:
    def test_quarantine_exits_nonzero_with_summary(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "task_exc:0@99")
        status = main(
            [
                "suite",
                "--designs",
                "miniblue4",
                "--modes",
                "ours",
                "--seeds",
                "0",
                "--max-iters",
                "6",
                "--jobs",
                "1",
                "--max-retries",
                "1",
                "--telemetry",
                str(tmp_path),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "QUARANTINED" in err and "quarantined" in err

    def test_supervisor_failure_is_a_typed_one_liner(
        self, monkeypatch, tmp_path, capsys
    ):
        _fail_second_registration(monkeypatch)
        status = main(
            [
                "suite", "--designs", "miniblue4", "--seeds", "0", "1",
                "--max-iters", "6", "--telemetry", str(tmp_path),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        summary, manifest = err.strip().splitlines()
        assert summary.startswith("SupervisorError: ")
        assert "1 completed run(s) salvaged" in summary
        assert manifest == (
            f"partial suite manifest: {tmp_path / SUITE_MANIFEST_FILENAME}"
        )

    def test_other_value_errors_are_not_usage_errors(self, monkeypatch):
        def broken_generator(*args, **kwargs):
            raise ValueError("generator bug")

        monkeypatch.setattr(supervisor_mod, "ensure_cached", broken_generator)
        with pytest.raises(ValueError, match="generator bug"):
            main(["suite", "--designs", "miniblue4", "--max-iters", "6"])
