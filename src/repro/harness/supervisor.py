"""The suite runner: every (design, mode, seed) task runs through here.

:func:`run_tasks` is the one way a :class:`SuiteTask` runs - the Table-3
matrix, the ``suite`` subcommand and the benchmarks all call it.  It
primes the design-bundle cache, then hands the tasks to a task-granular
supervisor: in-process when ``jobs <= 1``, otherwise on ``spawn``
workers (fork would inherit the parent's warmed NumPy/RNG state), each
preloading the task designs once through the bundle cache.  Every task
seeds its own run and derives its telemetry run id from the task, and
results come back in task order, so ``--jobs N`` changes wall-clock
only: final metrics are bit-identical to ``--jobs 1``.

The supervisor adds:

- **crash isolation** - each worker owns a duplex pipe; a dead worker
  (SIGKILL, segfault) costs exactly its in-flight task, which is retried
  on a freshly spawned replacement while every other worker keeps going;
- **per-task wall-clock timeouts** - a hung worker is killed at
  ``task_timeout`` seconds and its task retried (taxonomy ``timeout``);
- **bounded retry with deterministic backoff** - failed tasks re-enter
  the queue after an exponential-backoff delay with seeded jitter
  (:meth:`SupervisorOptions.backoff_delay` is a pure function of
  ``(seed, task_index, attempt)``, so retry schedules are reproducible);
- **poisoned-task quarantine** - after ``max_retries`` retries a task is
  quarantined with its failure taxonomy (``crash`` / ``timeout`` /
  ``exception`` / ``cache-corrupt``) and the suite *completes*, salvaging
  every other result;
- **graceful degradation** - if workers cannot be (re)spawned the
  remaining tasks run serially in-process (retry/quarantine still apply;
  timeouts cannot preempt in-process tasks).

A zero-fault suite carries no trace of supervision: no ``supervision``
block in its manifests and no event file.  Supervisor outcomes stream to
telemetry (``task_retry`` / ``task_quarantine`` / ``worker_respawn``
events, written lazily) and into the suite manifest's ``supervision``
provenance; a failure of the supervisor itself salvages every completed
run into a partial suite manifest before a typed
:class:`SupervisorError` propagates.

This is the **only** module allowed to construct process pools
(reprolint rule ``supervised-pool-only``).
"""

from __future__ import annotations

import heapq
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
from ..runtime.faults import BundleCorruptionError, maybe_inject_process_fault
from ..telemetry.events import MetricsRecorder
from ..telemetry.manifest import load_manifest
from ..telemetry.registry import RunRegistry
from ..telemetry.resources import resource_delta, sample_resources
from .runners import RunRecord, run_mode
from .suite import design_spec, load_design

__all__ = [
    "DuplicateTaskError",
    "FAILURE_KINDS",
    "SUITE_MANIFEST_FILENAME",
    "SupervisorError",
    "SupervisorOptions",
    "TaskAttempt",
    "TaskOutcome",
    "SuiteTask",
    "run_tasks",
    "suite_metrics",
    "write_suite_manifest",
]

#: The supervisor's failure taxonomy, as recorded in outcomes/manifests.
FAILURE_KINDS = ("crash", "timeout", "exception", "cache-corrupt")

#: Filename of the lazily created suite-level supervisor event stream.
SUPERVISOR_EVENTS_FILENAME = "supervisor_events.jsonl"

#: Filename of the merged suite summary inside a telemetry directory.
SUITE_MANIFEST_FILENAME = "suite_manifest.json"

#: True inside a spawned worker process (set by :func:`_mark_worker`);
#: gates the process-killing fault injections.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


# ----------------------------------------------------------------------
# The typed error: no raw multi-process traceback reaches the CLI.
# ----------------------------------------------------------------------
class SupervisorError(RuntimeError):
    """A suite execution failure with enough context for a one-line report.

    ``completed`` carries every ``(task_index, RunRecord)`` that finished
    before the failure, so callers can salvage a partial suite manifest
    instead of discarding finished work.
    """

    def __init__(
        self,
        message: str,
        failure: str = "exception",
        task_index: Optional[int] = None,
        run_id: Optional[str] = None,
        attempts: int = 1,
        completed: Sequence[Tuple[int, RunRecord]] = (),
    ) -> None:
        super().__init__(message)
        self.failure = failure
        self.task_index = task_index
        self.run_id = run_id
        self.attempts = attempts
        self.completed = list(completed)
        #: Filled in by the salvage path with the partial manifest path.
        self.partial_manifest: Optional[str] = None

    def summary(self) -> str:
        """One actionable line: which task, which failure, how many tries."""
        where = self.run_id if self.run_id else "suite"
        line = (
            f"{type(self).__name__}: task {where} failed "
            f"({self.failure}) after {self.attempts} attempt(s): {self}"
        )
        if self.completed:
            line += f" [{len(self.completed)} completed run(s) salvaged]"
        return line


class DuplicateTaskError(ValueError):
    """Two suite tasks share a run id (a usage error, raised before work)."""


# ----------------------------------------------------------------------
# Options / outcome records
# ----------------------------------------------------------------------
@dataclass
class SupervisorOptions:
    """Retry/timeout/backoff policy of one supervised suite run."""

    #: Per-task wall-clock timeout in seconds; None/0 disables (a hung
    #: worker then blocks its slot forever - set a timeout whenever task
    #: runtimes are bounded and predictable).
    task_timeout: Optional[float] = None
    #: Retries after the first attempt before quarantine (total attempts
    #: = ``max_retries + 1``).
    max_retries: int = 2
    #: First retry delay in seconds (exponential growth per attempt).
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Seed of the backoff jitter; schedules are a pure function of
    #: ``(backoff_seed, task_index, attempt)``.
    backoff_seed: int = 0

    def backoff_delay(self, task_index: int, attempt: int) -> float:
        """Deterministic retry delay before attempt ``attempt + 1``."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
        )
        rng = np.random.default_rng(
            (self.backoff_seed, int(task_index), int(attempt))
        )
        # +/-20% seeded jitter decorrelates retry bursts across tasks.
        return float(base * (0.8 + 0.4 * rng.random()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_timeout_s": self.task_timeout,
            "max_retries": self.max_retries,
            "backoff_base_s": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max_s": self.backoff_max,
            "backoff_seed": self.backoff_seed,
        }


@dataclass
class TaskAttempt:
    """One failed attempt of one task."""

    attempt: int
    failure: str  # one of FAILURE_KINDS
    error: str
    retry_delay_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "failure": self.failure,
            "error": self.error,
            "retry_delay_s": self.retry_delay_s,
        }


@dataclass
class TaskOutcome:
    """Supervision history of one task (attempts, failures, quarantine)."""

    index: int
    run_id: str
    attempts: int = 0
    #: Failure kind the task was quarantined with, or None on success.
    quarantined: Optional[str] = None
    failures: List[TaskAttempt] = field(default_factory=list)

    @property
    def eventful(self) -> bool:
        return bool(self.failures) or self.quarantined is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "run_id": self.run_id,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "failures": [f.to_dict() for f in self.failures],
        }


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
    attempt: int = 1,
) -> RunRecord:
    """Worker body: run one task and record its set-up provenance.

    With ``use_cache`` the design (and its prebuilt timing graph) comes
    from the bundle cache: in a warm worker the per-process memo serves
    it with zero disk traffic, so ``setup_s`` collapses to microseconds
    after the first task.  Without, the cold path regenerates the design
    from scratch - kept as the benchmark baseline and as a cross-check
    that cached runs are bit-identical.

    ``task_index``/``attempt`` feed the process-level fault injections
    (fired mid-task, after design setup) and stamp retry provenance into
    the run's telemetry manifest on attempts past the first.
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
    maybe_inject_process_fault(
        task_index,
        attempt,
        in_worker=_IN_WORKER,
        bundle_path=cache_info["path"] if cache_info else None,
    )
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
        supervision={"attempt": attempt} if attempt > 1 else None,
    )
    record.setup_s = setup_s
    record.attempts = attempt
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
            # design will surface (and retry) the real error.
            pass


def _classify_exception(exc: BaseException) -> str:
    """Map a task exception onto the supervisor failure taxonomy."""
    if isinstance(exc, BundleCorruptionError):
        return "cache-corrupt"
    return "exception"


def _one_line(exc: BaseException) -> str:
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def quarantined_record(task: SuiteTask, outcome: TaskOutcome) -> RunRecord:
    """Placeholder record keeping quarantined tasks aligned with results."""
    return RunRecord(
        design=task.design,
        mode=task.mode,
        wns=float("nan"),
        tns=float("nan"),
        hpwl=float("nan"),
        runtime=0.0,
        iterations=0,
        stop_reason=f"quarantined:{outcome.quarantined}",
        x=np.empty(0),
        y=np.empty(0),
        attempts=outcome.attempts,
        quarantine=outcome.to_dict(),
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

    Replies ``("ok", index, record)`` or ``("exc", index, kind, error)``;
    a crash (SIGKILL, hard fault) simply drops the pipe, which the parent
    observes as EOF.
    """
    _mark_worker()
    if use_cache:
        _preload_designs(cache_dir, names)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if message[0] == "stop":
            return
        _, index, attempt, task = message
        try:
            record = _execute_task(
                task, use_cache, cache_dir, task_index=index, attempt=attempt
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            conn.send(("exc", index, _classify_exception(exc), _one_line(exc)))
        else:
            conn.send(("ok", index, record))


class _Worker:
    """Parent-side handle of one supervised worker process."""

    __slots__ = ("process", "conn", "task_index", "attempt", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task_index: Optional[int] = None
        self.attempt = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task_index is not None

    def assign(
        self, index: int, attempt: int, task: SuiteTask, timeout: Optional[float]
    ) -> None:
        self.task_index = index
        self.attempt = attempt
        self.deadline = (
            time.monotonic() + timeout if timeout and timeout > 0 else None
        )
        self.conn.send(("task", index, attempt, task))

    def release(self) -> None:
        self.task_index = None
        self.attempt = 0
        self.deadline = None

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
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
# Lazy suite-level telemetry (no file unless an event actually happens,
# keeping zero-fault supervised runs byte-identical on disk).
# ----------------------------------------------------------------------
class _SupervisorTelemetry:
    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory
        self._recorder: Optional[MetricsRecorder] = None

    def event(self, kind: str, **fields: Any) -> None:
        if self.directory is None:
            return
        if self._recorder is None:
            self._recorder = MetricsRecorder(
                os.path.join(self.directory, SUPERVISOR_EVENTS_FILENAME)
            )
        self._recorder.event(kind, **fields)

    def close(self) -> None:
        if self._recorder is not None:
            self._recorder.close()


# ----------------------------------------------------------------------
# The supervisor proper
# ----------------------------------------------------------------------
class _Supervisor:
    """State machine of one supervised fan-out."""

    def __init__(
        self,
        tasks: Sequence[SuiteTask],
        jobs: int,
        options: SupervisorOptions,
        verbose: bool,
        use_cache: bool,
        cache_dir: Optional[str],
    ) -> None:
        self.tasks = list(tasks)
        self.jobs = jobs
        self.options = options
        self.verbose = verbose
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.names = _design_names(self.tasks)
        n = len(self.tasks)
        self.results: List[Optional[RunRecord]] = [None] * n
        self.outcomes = [
            TaskOutcome(index=i, run_id=t.run_id)
            for i, t in enumerate(self.tasks)
        ]
        self.pending = deque(range(n))
        self.retries: List[Tuple[float, int]] = []  # (ready_at, index) heap
        self.done = 0
        self.emitted = 0
        self.worker_respawns = 0
        self.degraded = False
        telemetry_dir = next(
            (t.telemetry_dir for t in self.tasks if t.telemetry_dir), None
        )
        self.telemetry = _SupervisorTelemetry(telemetry_dir)
        #: Live-run registry under the suite telemetry dir: worker
        #: sessions heartbeat into it, and the supervisor reads it
        #: post-mortem to say *where* a killed/hung task last was.
        self.registry = (
            RunRegistry(telemetry_dir) if telemetry_dir is not None else None
        )

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            if self.jobs <= 1 or len(self.tasks) <= 1:
                self._run_serial(list(self.pending))
                self.pending.clear()
            else:
                self._run_pool()
        finally:
            self.telemetry.close()
            if self.registry is not None:
                # Sweep records orphaned by killed workers so `status`
                # shows a clean registry after the suite returns.
                self.registry.gc()

    def _last_heartbeat(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Post-mortem heartbeat of a killed/hung task's run, if any.

        A worker that died mid-task leaves its run's registry record
        behind (clean exits remove it), so the last beat tells us the
        phase/iteration the task reached and how long it had been silent.
        """
        if self.registry is None:
            return None
        record = self.registry.read(run_id)
        if record is None:
            return None
        return {
            "phase": record.phase,
            "iteration": record.iteration,
            "age_s": round(record.age_s(), 1),
        }

    @staticmethod
    def _describe_heartbeat(heartbeat: Optional[Dict[str, Any]]) -> str:
        """``"; last seen at iteration 412 in rsmt_rebuild, silent for 93s"``."""
        if heartbeat is None:
            return ""
        where = f"in {heartbeat['phase']}"
        if heartbeat.get("iteration") is not None:
            where = f"at iteration {heartbeat['iteration']} {where}"
        return f"; last seen {where}, silent for {heartbeat['age_s']:.0f}s"

    def supervision(self) -> Optional[Dict[str, Any]]:
        """Suite-manifest ``supervision`` provenance (deterministic), or
        None when nothing intervened (no retry, quarantine, respawn or
        serial degradation) - fault-free suites carry no provenance."""
        eventful = [o for o in self.outcomes if o.eventful]
        if not (eventful or self.worker_respawns or self.degraded):
            return None
        quarantined = [o.run_id for o in eventful if o.quarantined]
        return {
            "enabled": True,
            "options": self.options.to_dict(),
            "worker_respawns": self.worker_respawns,
            "degraded_to_serial": self.degraded,
            "retries": sum(len(o.failures) for o in eventful)
            - len(quarantined),
            "quarantined": quarantined,
            "tasks": [o.to_dict() for o in eventful],
        }

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _run_pool(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        workers: List[_Worker] = []
        target = min(self.jobs, len(self.tasks))
        try:
            for _ in range(target):
                workers.append(self._respawn(ctx, initial=True))
        except Exception as exc:
            for worker in workers:
                worker.shutdown()
            self._degrade(f"worker pool could not be built: {_one_line(exc)}")
            return

        try:
            while self.done < len(self.tasks):
                self._dispatch(ctx, workers)
                busy = [w for w in workers if w.busy]
                if not busy:
                    if not self.pending and not self.retries:
                        break  # pragma: no cover - defensive
                    self._sleep_until_retry_ready()
                    continue
                timeout = self._wait_timeout(busy)
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=timeout
                )
                now = time.monotonic()
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    self._drain_worker(ctx, workers, by_conn[conn], now)
                for worker in list(workers):
                    if (
                        worker.busy
                        and worker.deadline is not None
                        and time.monotonic() >= worker.deadline
                    ):
                        self._timeout_worker(ctx, workers, worker)
        except _DegradedToSerial as exc:
            for worker in workers:
                worker.kill()
            workers = []
            self._degrade(str(exc))
        finally:
            for worker in workers:
                worker.shutdown()

    def _respawn(self, ctx, initial: bool = False) -> _Worker:
        worker = _spawn_worker(ctx, self.use_cache, self.cache_dir, self.names)
        if not initial:
            self.worker_respawns += 1
        return worker

    def _dispatch(self, ctx, workers: List[_Worker]) -> None:
        now = time.monotonic()
        for worker in list(workers):
            if worker.busy:
                continue
            index = self._next_ready(now)
            if index is None:
                return
            outcome = self.outcomes[index]
            outcome.attempts += 1
            try:
                worker.assign(
                    index,
                    outcome.attempts,
                    self.tasks[index],
                    self.options.task_timeout,
                )
            except (OSError, ValueError):
                # The worker died while idle: the task never ran, so it
                # goes back to the front of the queue uncharged.
                outcome.attempts -= 1
                worker.release()
                self.pending.appendleft(index)
                worker.kill()
                workers.remove(worker)
                try:
                    workers.append(self._respawn(ctx))
                except Exception as exc:
                    raise _DegradedToSerial(
                        f"worker respawn failed: {_one_line(exc)}"
                    )

    def _next_ready(self, now: float) -> Optional[int]:
        if self.retries and self.retries[0][0] <= now:
            return heapq.heappop(self.retries)[1]
        if self.pending:
            return self.pending.popleft()
        return None

    def _wait_timeout(self, busy: List[_Worker]) -> Optional[float]:
        now = time.monotonic()
        bounds = [
            w.deadline - now for w in busy if w.deadline is not None
        ]
        if self.retries:
            bounds.append(self.retries[0][0] - now)
        if not bounds:
            return None
        return max(min(bounds), 0.0)

    def _sleep_until_retry_ready(self) -> None:
        now = time.monotonic()
        delay = max(self.retries[0][0] - now, 0.0) if self.retries else 0.01
        time.sleep(min(delay + 0.001, 0.25))

    def _drain_worker(
        self, ctx, workers: List[_Worker], worker: _Worker, now: float
    ) -> None:
        index = worker.task_index
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-task: respawn it, retry only its task.
            pid = worker.process.pid
            worker.kill()
            workers.remove(worker)
            if index is not None:
                heartbeat = self._last_heartbeat(self.tasks[index].run_id)
                self._register_failure(
                    index,
                    "crash",
                    f"worker pid {pid} died mid-task"
                    f"{self._describe_heartbeat(heartbeat)}",
                    last_heartbeat=heartbeat,
                )
                self.telemetry.event(
                    "worker_respawn",
                    pid=pid,
                    run_id=self.tasks[index].run_id,
                    failure="crash",
                )
            if self.pending or self.retries:
                try:
                    workers.append(self._respawn(ctx))
                except Exception as exc:
                    raise _DegradedToSerial(
                        f"worker respawn failed: {_one_line(exc)}"
                    )
            return
        kind = message[0]
        if kind == "ok":
            _, index, record = message
            record.attempts = self.outcomes[index].attempts
            self._register_success(index, record)
        elif kind == "exc":
            _, index, failure, error = message
            self._register_failure(index, failure, error)
        worker.release()

    def _timeout_worker(
        self, ctx, workers: List[_Worker], worker: _Worker
    ) -> None:
        index = worker.task_index
        pid = worker.process.pid
        worker.kill()
        workers.remove(worker)
        if index is not None:
            heartbeat = self._last_heartbeat(self.tasks[index].run_id)
            self._register_failure(
                index,
                "timeout",
                f"task exceeded {self.options.task_timeout:.1f}s wall-clock "
                f"timeout (worker pid {pid} killed)"
                f"{self._describe_heartbeat(heartbeat)}",
                last_heartbeat=heartbeat,
            )
            self.telemetry.event(
                "worker_respawn",
                pid=pid,
                run_id=self.tasks[index].run_id,
                failure="timeout",
            )
        if self.pending or self.retries:
            try:
                workers.append(self._respawn(ctx))
            except Exception as exc:
                raise _DegradedToSerial(
                    f"worker respawn failed: {_one_line(exc)}"
                )

    # ------------------------------------------------------------------
    # Serial (degraded / jobs<=1) path
    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        self.degraded = True
        if self.verbose:
            print(f"supervisor: degrading to serial execution ({reason})")
        remaining = sorted(
            set(self.pending)
            | {index for _, index in self.retries}
            | {
                i
                for i in range(len(self.tasks))
                if self.results[i] is None
                and self.outcomes[i].quarantined is None
            }
        )
        self.pending.clear()
        self.retries = []
        self._run_serial(remaining)

    def _run_serial(self, indices: Sequence[int]) -> None:
        for index in indices:
            outcome = self.outcomes[index]
            while True:
                outcome.attempts += 1
                try:
                    record = _execute_task(
                        self.tasks[index],
                        self.use_cache,
                        self.cache_dir,
                        task_index=index,
                        attempt=outcome.attempts,
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    retrying = self._register_failure(
                        index, _classify_exception(exc), _one_line(exc)
                    )
                    if not retrying:
                        break
                    # Honour the deterministic backoff schedule in-process.
                    time.sleep(outcome.failures[-1].retry_delay_s)
                else:
                    self._register_success(index, record)
                    break

    # ------------------------------------------------------------------
    # Outcome bookkeeping (shared by both paths)
    # ------------------------------------------------------------------
    def _register_success(self, index: int, record: RunRecord) -> None:
        self.results[index] = record
        self.done += 1
        self._flush_verbose()

    def _register_failure(
        self,
        index: int,
        failure: str,
        error: str,
        last_heartbeat: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Record one failed attempt; True when the task will be retried.

        ``last_heartbeat`` (``{phase, iteration, age_s}``, from the run
        registry) is stamped into the quarantine telemetry so the event
        says *where* the task died, not just that it did.
        """
        outcome = self.outcomes[index]
        task = self.tasks[index]
        if outcome.attempts > self.options.max_retries:
            outcome.failures.append(
                TaskAttempt(
                    attempt=outcome.attempts, failure=failure, error=error
                )
            )
            outcome.quarantined = failure
            self.results[index] = quarantined_record(task, outcome)
            self.done += 1
            self.telemetry.event(
                "task_quarantine",
                run_id=task.run_id,
                task_index=index,
                attempts=outcome.attempts,
                failure=failure,
                error=error,
                last_heartbeat=last_heartbeat,
            )
            if self.registry is not None:
                # The quarantined run will never beat again; drop its
                # record rather than leaving a permanent "dead" row.
                self.registry.remove(task.run_id)
            self._flush_verbose()
            return False
        delay = self.options.backoff_delay(index, outcome.attempts)
        outcome.failures.append(
            TaskAttempt(
                attempt=outcome.attempts,
                failure=failure,
                error=error,
                retry_delay_s=delay,
            )
        )
        heapq.heappush(self.retries, (time.monotonic() + delay, index))
        self.telemetry.event(
            "task_retry",
            run_id=task.run_id,
            task_index=index,
            attempt=outcome.attempts,
            failure=failure,
            error=error,
            delay_s=delay,
        )
        if self.verbose:
            print(
                f"supervisor: retrying {task.run_id} "
                f"(attempt {outcome.attempts} {failure}: {error})"
            )
        return True

    def _flush_verbose(self) -> None:
        """Print finished records in task order, independent of scheduling."""
        while (
            self.emitted < len(self.results)
            and self.results[self.emitted] is not None
        ):
            if self.verbose:
                print(self.results[self.emitted].summary())
            self.emitted += 1


class _DegradedToSerial(Exception):
    """Internal control flow: the pool is unrecoverable, finish serially."""


def _design_names(tasks: Sequence[SuiteTask]) -> List[str]:
    """Distinct task designs, in first-appearance order."""
    return list(dict.fromkeys(task.design for task in tasks))


def run_tasks(
    tasks: Sequence[SuiteTask],
    jobs: int = 1,
    options: Optional[SupervisorOptions] = None,
    *,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> Tuple[List[RunRecord], Optional[Dict[str, Any]]]:
    """Run tasks; returns ``(task-ordered records, supervision provenance)``.

    The one way a :class:`SuiteTask` runs.  Tasks run in-process when
    ``jobs <= 1``, on ``jobs`` spawn workers otherwise; with ``use_cache``
    the parent first primes the on-disk bundle cache serially, so workers
    never race to generate the same design.  A quarantined task
    contributes a placeholder record (``stop_reason="quarantined:<kind>"``,
    NaN metrics, ``quarantine`` provenance) so downstream zips keep
    working.  The provenance dict is None unless supervision intervened.

    Raises :class:`DuplicateTaskError` (a ``ValueError``) before any work
    starts when two tasks share a run id (they would share a telemetry
    directory and a metrics key).
    A failure of the supervisor itself salvages every completed record
    into a partial suite manifest, then propagates as
    :class:`SupervisorError` with ``.partial_manifest`` set.
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
        options=options if options is not None else SupervisorOptions(),
        verbose=verbose,
        use_cache=use_cache,
        cache_dir=cache_dir,
    )
    try:
        supervisor.run()
    except Exception as exc:
        # Task failures are retried and quarantined inside the run; only
        # a failure of the supervisor itself lands here.
        completed = [
            (i, r) for i, r in enumerate(supervisor.results) if r is not None
        ]
        error = SupervisorError(_one_line(exc), completed=completed)
        directory = supervisor.telemetry.directory
        if directory is not None and completed:
            try:
                error.partial_manifest = write_suite_manifest(
                    directory,
                    [tasks[i] for i, _ in completed],
                    [rec for _, rec in completed],
                    jobs,
                    partial=True,
                )
            except OSError:  # pragma: no cover - must not mask the failure
                pass
        raise error from exc
    return supervisor.results, supervisor.supervision()


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
    and they carry no real result; the suite manifest records them under
    ``supervision`` instead.
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
    supervision: Optional[Dict[str, Any]] = None,
    partial: bool = False,
) -> str:
    """Merge per-run telemetry into one ``suite_manifest.json``.

    Collects each run's manifest (when the run streamed telemetry) and
    sums the runs' per-layer span stats, so a parallel suite still yields
    one profile.

    ``supervision`` is :func:`run_tasks`' provenance dict; it (and the
    per-run ``attempts``/``quarantine`` fields) only appears when
    supervision intervened.  ``partial=True`` marks a salvage manifest
    written on a terminal failure: it holds only the completed subset of
    the suite.
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
        if rec.attempts > 1:
            entry["attempts"] = rec.attempts
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
    if supervision is not None:
        payload["supervision"] = supervision
    if partial:
        payload["partial"] = True
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SUITE_MANIFEST_FILENAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.replace(tmp, path)
    return path
