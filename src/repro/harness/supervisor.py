"""The suite runner: every (design, mode, seed) task runs through here.

:func:`run_tasks` is the one way a :class:`SuiteTask` runs - the Table-3
matrix, the ``suite`` subcommand and the benchmarks all call it.  It
primes the design-bundle cache, then runs every task exactly once:
in-process when ``jobs <= 1`` and no ``task_timeout`` is set, otherwise
on ``spawn`` workers (fork would inherit the parent's warmed NumPy/RNG
state), each preloading the task designs once through the bundle cache.
Every task seeds its own run and derives its telemetry run id from the
task, and results come back in task order, so ``--jobs N`` changes
wall-clock only: final metrics are bit-identical to ``--jobs 1``.

A task that fails is **quarantined** on the spot with its failure kind
(:data:`FAILURE_KINDS`) and its run id, and the suite completes:

- ``exception`` - the task raised;
- ``crash`` - its worker died (SIGKILL, segfault, OOM); each worker owns
  a duplex pipe, so a dead worker costs exactly its in-flight task;
- ``timeout`` - it ran past ``task_timeout`` seconds, counted from when
  its worker reported the task started (a fresh worker's start-up and
  preload are not the task's), and its worker was killed; or its worker
  did not report the start within :data:`STARTUP_TIMEOUT` seconds of
  being handed the task (a worker hung in start-up or preload), and was
  killed.

A dead or killed worker is respawned for the tasks that remain.  Tasks
are deterministic, so there are no retries: a second attempt would
raise the same exception again, or hit the same limit.

This is the **only** module allowed to construct process pools
(reprolint rule ``supervised-pool-only``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.objective import TimingObjectiveOptions
from ..netlist.cache import ensure_cached, load_bundle
from ..place.placer import PlacerOptions
from ..runtime.faults import maybe_kill_worker
from ..telemetry.manifest import load_manifest
from ..telemetry.resources import resource_delta, sample_resources
from ..telemetry.session import run_state
from .runners import RunRecord, run_mode
from .suite import design_spec, load_design

__all__ = [
    "DuplicateTaskError",
    "FAILURE_KINDS",
    "SUITE_MANIFEST_FILENAME",
    "SupervisorError",
    "SuiteTask",
    "run_tasks",
    "suite_metrics",
    "write_suite_manifest",
]

#: The failure kinds a quarantined task is recorded with.
FAILURE_KINDS = ("crash", "timeout", "exception")

#: Filename of the merged suite summary inside a telemetry directory.
SUITE_MANIFEST_FILENAME = "suite_manifest.json"

#: Seconds a worker has, from being handed a task, to report that it
#: started it: its spawn, imports and design preload.  Far above a cold
#: midiblue50 preload; only a hung worker reaches it.
STARTUP_TIMEOUT = 600.0


class SupervisorError(RuntimeError):
    """The supervisor itself failed, or a task it quarantined was a
    required result (a Table 3 cell); :meth:`summary` is one line."""

    def __init__(
        self,
        message: str,
        failure: str = "exception",
        run_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.failure = failure
        self.run_id = run_id

    def summary(self) -> str:
        """One actionable line: which task, which failure."""
        where = self.run_id if self.run_id else "suite"
        return (
            f"{type(self).__name__}: task {where} failed "
            f"({self.failure}): {self}"
        )


class DuplicateTaskError(ValueError):
    """Two suite tasks share a run id (a usage error, raised before work)."""


# ----------------------------------------------------------------------
# Task definition + execution body (in-process and in workers alike)
# ----------------------------------------------------------------------
@dataclass
class SuiteTask:
    """One self-contained (design, mode, seed) placement run."""

    design: str
    mode: str
    seed: int = 0
    max_iters: int = 600
    checkpoint_every: int = 0
    rsmt_period: Optional[int] = None
    telemetry_dir: Optional[str] = None
    #: Attach the run's per-layer span stats to the result.
    profile: bool = False
    #: Also attach the run's span timeline (for suite trace export).
    collect_spans: bool = False
    with_trace_sta: bool = False
    extra_placer_options: Dict[str, Any] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        """Deterministic telemetry run id (no timestamp/pid component)."""
        return f"{self.design}_{self.mode}_s{self.seed}"

    def timing_options(self) -> Optional[TimingObjectiveOptions]:
        if self.rsmt_period is None:
            return None
        return TimingObjectiveOptions(rsmt_period=self.rsmt_period)


def _execute_task(
    task: SuiteTask,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    task_index: int = 0,
) -> RunRecord:
    """Worker body: run one task and record its set-up provenance.

    With ``use_cache`` the design (and its prebuilt timing graph) comes
    from the bundle cache: in a warm worker the per-process memo serves
    it with zero disk traffic, so ``setup_s`` collapses to microseconds
    after the first task.  Without, the cold path regenerates the design
    from scratch - kept as the benchmark baseline and as a cross-check
    that cached runs are bit-identical.

    ``task_index`` feeds the ``worker_kill`` fault injection, fired
    mid-task (after design setup).
    """
    resources_before = sample_resources()
    t0 = time.perf_counter()
    graph = None
    cache_info = None
    if use_cache:
        bundle, info = load_bundle(design_spec(task.design), cache_dir)
        design = bundle.design
        graph = bundle.graph
        cache_info = info.to_dict()
    else:
        design = load_design(task.design)
    setup_s = time.perf_counter() - t0
    maybe_kill_worker(task_index)
    record = run_mode(
        design,
        task.mode,
        placer_options=PlacerOptions(
            max_iters=task.max_iters,
            seed=task.seed,
            checkpoint_every=task.checkpoint_every,
            **task.extra_placer_options,
        ),
        timing_options=task.timing_options(),
        with_trace_sta=task.with_trace_sta,
        profile=task.profile,
        collect_spans=task.collect_spans,
        telemetry_dir=task.telemetry_dir,
        run_id=task.run_id if task.telemetry_dir else None,
        sta_graph=graph,
        design_cache=cache_info,
    )
    record.setup_s = setup_s
    # Whole-task attribution (setup + solve + golden STA): CPU/fault
    # deltas stay per-task even in a warm worker whose getrusage counters
    # accumulate across tasks.  Overrides the session-scoped rollup
    # run_mode attached, which excludes design setup.
    delta = resource_delta(resources_before, sample_resources())
    if delta is not None:
        record.resources = delta
    return record


def _preload_designs(cache_dir: Optional[str], names: Sequence[str]) -> None:
    """Warm a fresh worker: load every task design bundle once."""
    for name in names:
        try:
            load_bundle(design_spec(name), cache_dir)
        except Exception:
            # A failed preload is not fatal: the task that needs the
            # design will surface (and be quarantined with) the real error.
            pass


def _one_line(exc: BaseException) -> str:
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def quarantined_record(task: SuiteTask, failure: str, error: str) -> RunRecord:
    """Placeholder record keeping quarantined tasks aligned with results."""
    return RunRecord(
        design=task.design,
        mode=task.mode,
        wns=float("nan"),
        tns=float("nan"),
        hpwl=float("nan"),
        runtime=0.0,
        iterations=0,
        stop_reason=f"quarantined:{failure}",
        x=np.empty(0),
        y=np.empty(0),
        quarantine={"failure": failure, "error": error},
    )


# ----------------------------------------------------------------------
# Supervised worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    use_cache: bool,
    cache_dir: Optional[str],
    names: Tuple[str, ...],
) -> None:
    """Spawned-worker loop: warm up, then execute tasks until told to stop.

    Reports ``("started", index)`` when it takes a task up, then replies
    ``("ok", index, record)`` or ``("exc", index, error)``; a crash
    (SIGKILL, hard fault) simply drops the pipe, which the parent
    observes as EOF.
    """
    if use_cache:
        _preload_designs(cache_dir, names)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if message[0] == "stop":
            return
        _, index, task = message
        conn.send(("started", index))
        try:
            record = _execute_task(task, use_cache, cache_dir, task_index=index)
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            conn.send(("exc", index, _one_line(exc)))
        else:
            conn.send(("ok", index, record))


class _Worker:
    """Parent-side handle of one supervised worker process."""

    __slots__ = ("process", "conn", "task_index", "deadline", "running")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task_index: Optional[int] = None
        self.deadline: Optional[float] = None
        #: The worker reported that it started its task.
        self.running = False

    def assign(self, index: int, task: SuiteTask) -> None:
        """Hand the worker a task; it has :data:`STARTUP_TIMEOUT` seconds
        to report that it started it."""
        self.conn.send(("task", index, task))
        self.task_index = index
        self.running = False
        self.deadline = time.monotonic() + STARTUP_TIMEOUT

    def started(self, timeout: Optional[float]) -> None:
        """The worker began the task: its timeout runs from here, so a
        fresh worker's start-up and preload do not count against it."""
        self.running = True
        self.deadline = time.monotonic() + timeout if timeout else None

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(5.0)
        try:
            self.conn.close()
        except OSError:
            pass


def _spawn_worker(
    ctx, use_cache: bool, cache_dir: Optional[str], names: Sequence[str]
) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn, use_cache, cache_dir, tuple(names)),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


# ----------------------------------------------------------------------
# The supervisor proper
# ----------------------------------------------------------------------
class _Supervisor:
    """State of one suite run: every task runs once, in task order."""

    def __init__(
        self,
        tasks: Sequence[SuiteTask],
        jobs: int,
        task_timeout: Optional[float],
        verbose: bool,
        use_cache: bool,
        cache_dir: Optional[str],
    ) -> None:
        self.tasks = list(tasks)
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.verbose = verbose
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.names = _design_names(self.tasks)
        self.results: List[Optional[RunRecord]] = [None] * len(self.tasks)
        self.emitted = 0
        # Worker-pool state (``_run_pool`` only).
        self.ctx = multiprocessing.get_context("spawn")
        self.pending = deque(range(len(self.tasks)))
        self.workers: List[_Worker] = []

    @staticmethod
    def _last_seen(task: SuiteTask) -> str:
        """``"; last seen at iteration 412 in place, silent for 93s"``, as
        the unfinalized run directory of a killed task tells it; empty
        without telemetry or before the run started."""
        if task.telemetry_dir is None:
            return ""
        state = run_state(os.path.join(task.telemetry_dir, task.run_id))
        if state is None:
            return ""
        return f"; last seen {state.where()}, silent for {state.age_s():.0f}s"

    def _run_in_process(self) -> None:
        for index, task in enumerate(self.tasks):
            try:
                record = _execute_task(
                    task, self.use_cache, self.cache_dir, task_index=index
                )
            except Exception as exc:
                self._quarantine(index, "exception", _one_line(exc))
            else:
                self._finish(index, record)

    def _run_pool(self) -> None:
        try:
            for _ in range(min(max(self.jobs, 1), len(self.tasks))):
                self.workers.append(self._spawn())
            while True:
                for worker in list(self.workers):
                    if worker.task_index is None and self.pending:
                        index = self.pending.popleft()
                        try:
                            worker.assign(index, self.tasks[index])
                        except (OSError, ValueError):
                            # The worker died while idle: the task never
                            # started, so it goes back to the queue.
                            self.pending.appendleft(index)
                            worker.kill()
                            self._replace(worker)
                busy = [w for w in self.workers if w.task_index is not None]
                if not busy:
                    break
                deadlines = [w.deadline for w in busy if w.deadline]
                wait = (
                    max(min(deadlines) - time.monotonic(), 0.0)
                    if deadlines
                    else None
                )
                ready = mp_connection.wait([w.conn for w in busy], wait)
                for worker in busy:
                    if worker.conn in ready:
                        self._drain(worker)
                    elif time.monotonic() >= (worker.deadline or float("inf")):
                        self._lose(
                            worker, "timeout",
                            f"task exceeded {self.task_timeout:g}s "
                            "wall-clock timeout (worker pid "
                            f"{worker.process.pid} killed)"
                            if worker.running
                            else f"worker pid {worker.process.pid} did not "
                            f"start the task within {STARTUP_TIMEOUT:g}s "
                            "(killed)",
                        )
        finally:
            for worker in self.workers:
                worker.shutdown()

    def _spawn(self) -> _Worker:
        return _spawn_worker(
            self.ctx, self.use_cache, self.cache_dir, self.names
        )

    def _replace(self, worker: _Worker) -> None:
        """Respawn a killed ``worker`` while tasks remain, else drop it."""
        if self.pending:
            self.workers[self.workers.index(worker)] = self._spawn()
        else:
            self.workers.remove(worker)

    def _drain(self, worker: _Worker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._lose(
                worker, "crash",
                f"worker pid {worker.process.pid} died mid-task",
            )
            return
        if message[0] == "started":
            worker.started(self.task_timeout)
            return
        worker.task_index = worker.deadline = None
        if message[0] == "ok":
            self._finish(message[1], message[2])
        else:
            self._quarantine(message[1], "exception", message[2])

    def _lose(self, worker: _Worker, failure: str, error: str) -> None:
        """A worker died or was killed: quarantine its task, replace it."""
        index = worker.task_index
        worker.kill()
        self._replace(worker)
        self._quarantine(
            index, failure, error + self._last_seen(self.tasks[index])
        )

    def _quarantine(self, index: int, failure: str, error: str) -> None:
        self._finish(
            index, quarantined_record(self.tasks[index], failure, error)
        )

    def _finish(self, index: int, record: RunRecord) -> None:
        """Store a result; print finished records in task order."""
        self.results[index] = record
        while (
            self.emitted < len(self.results)
            and self.results[self.emitted] is not None
        ):
            if self.verbose:
                print(self.results[self.emitted].summary())
            self.emitted += 1


def _design_names(tasks: Sequence[SuiteTask]) -> List[str]:
    """Distinct task designs, in first-appearance order."""
    return list(dict.fromkeys(task.design for task in tasks))


def run_tasks(
    tasks: Sequence[SuiteTask],
    jobs: int = 1,
    *,
    task_timeout: Optional[float] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> List[RunRecord]:
    """Run every task once; returns the records in task order.

    The one way a :class:`SuiteTask` runs.  Tasks run in-process when
    ``jobs <= 1`` and ``task_timeout`` is unset, otherwise on
    ``max(jobs, 1)`` spawn workers - a timeout needs a worker to kill.
    With ``use_cache`` the parent first primes the on-disk bundle cache
    serially, so workers never race to generate the same design.  A
    quarantined task contributes a placeholder record
    (``stop_reason="quarantined:<kind>"``, NaN metrics, ``quarantine``
    = ``{failure, error}``) so downstream zips keep working.

    Raises :class:`DuplicateTaskError` (a ``ValueError``) before any work
    starts when two tasks share a run id (they would share a telemetry
    directory and a metrics key), and :class:`SupervisorError` when the
    supervisor itself fails.
    """
    tasks = list(tasks)
    counts = Counter(task.run_id for task in tasks)
    duplicates = [run_id for run_id, n in counts.items() if n > 1]
    if duplicates:
        raise DuplicateTaskError(
            f"duplicate suite tasks: run id(s) {', '.join(duplicates)} "
            "occur more than once"
        )
    if use_cache:
        for name in _design_names(tasks):
            ensure_cached(design_spec(name), cache_dir)
    supervisor = _Supervisor(
        tasks,
        jobs=jobs,
        task_timeout=task_timeout,
        verbose=verbose,
        use_cache=use_cache,
        cache_dir=cache_dir,
    )
    try:
        if jobs <= 1 and not task_timeout:
            supervisor._run_in_process()
        else:
            supervisor._run_pool()
    except Exception as exc:
        # Task failures are quarantined inside the run; only a failure of
        # the supervisor itself (no worker can be spawned, a bug in its
        # bookkeeping) lands here.
        raise SupervisorError(_one_line(exc)) from exc
    return supervisor.results


# ----------------------------------------------------------------------
# Suite results: deterministic metrics + the merged suite manifest
# ----------------------------------------------------------------------
def _final_metrics(rec: RunRecord) -> Dict[str, Any]:
    """Deterministic final metrics of one run (no wall-clock fields)."""
    return {
        "wns": rec.wns,
        "tns": rec.tns,
        "hpwl": rec.hpwl,
        "iterations": rec.iterations,
        "stop_reason": rec.stop_reason,
    }


def suite_metrics(
    tasks: Sequence[SuiteTask], records: Sequence[RunRecord]
) -> Dict[str, Any]:
    """Final metrics keyed ``design -> mode -> s<seed>``.

    Runtime (and other wall-clock quantities) are deliberately excluded:
    this dict must be byte-identical between ``--jobs 1`` and
    ``--jobs N`` runs of the same matrix.  Quarantined placeholder
    records are excluded too - their NaN metrics would poison the JSON
    and they carry no real result; the suite manifest records them per
    run instead.
    """
    out: Dict[str, Any] = {}
    for task, rec in zip(tasks, records):
        if rec.quarantined:
            continue
        out.setdefault(rec.design, {}).setdefault(rec.mode, {})[
            f"s{task.seed}"
        ] = _final_metrics(rec)
    return out


def _suite_resources(
    records: Sequence[RunRecord],
) -> Optional[Dict[str, Any]]:
    """Suite-level resource rollup: summed CPU/faults, max of the peaks.

    CPU seconds and fault counts are per-run deltas, so they sum to a
    suite total; peak RSS is per *process* (workers run tasks serially),
    so the honest aggregate is the worst single process, not a sum.
    Returns None when no record carries a sample (off-POSIX).
    """
    sampled = [r.resources for r in records if r.resources is not None]
    if not sampled:
        return None
    return {
        "peak_rss_bytes": max(int(s["peak_rss_bytes"]) for s in sampled),
        "cpu_user_s": sum(float(s["cpu_user_s"]) for s in sampled),
        "cpu_sys_s": sum(float(s["cpu_sys_s"]) for s in sampled),
        "minor_faults": sum(int(s["minor_faults"]) for s in sampled),
        "major_faults": sum(int(s["major_faults"]) for s in sampled),
        "sampled_runs": len(sampled),
    }


def write_suite_manifest(
    directory: str,
    tasks: Sequence[SuiteTask],
    records: Sequence[RunRecord],
    jobs: int,
) -> str:
    """Merge per-run telemetry into one ``suite_manifest.json``.

    Collects each run's manifest (when the run streamed telemetry) and
    sums the runs' per-layer span stats, so a parallel suite still yields
    one profile.  A quarantined run's entry carries ``quarantined: true``
    and its ``quarantine`` record (failure kind and error).
    """
    runs = []
    for task, rec in zip(tasks, records):
        entry: Dict[str, Any] = {
            "design": rec.design,
            "mode": rec.mode,
            "seed": task.seed,
            "run_id": task.run_id,
            "final_metrics": None if rec.quarantined else _final_metrics(rec),
            "runtime": rec.runtime,
            "setup_s": rec.setup_s,
            "design_cache": rec.design_cache,
        }
        if rec.resources is not None:
            entry["resources"] = rec.resources
        if rec.quarantined:
            entry["quarantined"] = True
            entry["quarantine"] = rec.quarantine
        if rec.run_dir:
            entry["run_dir"] = rec.run_dir
            try:
                entry["manifest"] = load_manifest(rec.run_dir).to_dict()
            except (OSError, ValueError):
                entry["manifest"] = None
        runs.append(entry)
    spans: Dict[str, Dict[str, float]] = {}
    for rec in records:
        for name, row in (rec.spans or {}).items():
            total = spans.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value
    payload = {
        "jobs": jobs,
        "n_runs": len(runs),
        "runs": runs,
        "spans": spans or None,
        "metrics": suite_metrics(tasks, records),
        "resources": _suite_resources(records),
    }
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SUITE_MANIFEST_FILENAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.replace(tmp, path)
    return path
