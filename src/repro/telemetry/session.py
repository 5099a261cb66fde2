"""One telemetry run: a directory with a manifest and an event stream.

:func:`start_run` creates (or, for resumes, re-opens) a run directory

::

    <base>/<run_id>/
        manifest.json     # identity + (after finalize) outcome
        events.jsonl      # typed metric stream (repro.telemetry.events)

and hands back a :class:`RunSession` whose recorder is armed around the
placement with :func:`repro.telemetry.events.recording`.  The session
snapshots process resources so ``finalize`` can roll a CPU/RSS summary
into the manifest.

The directory is also the run's only live record: :func:`run_state`
works out from the two files whether the run is still in flight, where
it is (phase, iteration, rate, RSS) and whether its process is live,
stale or dead - the answer behind ``python -m repro status`` and the
supervisor's quarantine message.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .events import MetricsRecorder, read_events_partial
from .manifest import (
    MANIFEST_FILENAME,
    RunManifest,
    load_manifest,
    make_run_id,
    write_manifest,
)
from .resources import resource_delta, sample_resources

__all__ = [
    "DEFAULT_STALE_AFTER_S",
    "RunSession",
    "RunState",
    "pid_alive",
    "run_state",
    "start_run",
]

#: Default seconds without an event before a live pid counts as stale.
DEFAULT_STALE_AFTER_S = 15.0


class RunSession:
    """Owns one run directory's manifest + recorder lifecycle."""

    def __init__(
        self, run_dir: str, manifest: RunManifest, recorder: MetricsRecorder
    ) -> None:
        self.run_dir = run_dir
        self.manifest = manifest
        self.recorder = recorder
        self._t0 = time.perf_counter()
        self._resources_start = sample_resources()

    def finalize(
        self,
        final_metrics: Optional[Dict[str, Any]] = None,
        spans: Optional[Dict[str, Any]] = None,
    ) -> RunManifest:
        """Record the outcome, write the manifest, release the stream.

        ``spans`` are the run's per-layer span stats
        (:func:`repro.perf.flow_stats`).  The finalized manifest (its
        ``wall_clock_s`` set) is what marks the run as no longer active.
        """
        self.manifest.wall_clock_s = time.perf_counter() - self._t0
        if final_metrics:
            self.manifest.final_metrics = dict(final_metrics)
        if spans is not None:
            self.manifest.spans = spans
        rollup = resource_delta(self._resources_start, sample_resources())
        if rollup is not None:
            self.manifest.resources = rollup
        write_manifest(self.manifest, self.run_dir)
        self.recorder.close()
        return self.manifest


def start_run(
    base_dir: str,
    design: str,
    mode: str,
    seed: int,
    options: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
) -> RunSession:
    """Open a telemetry run under ``base_dir``.

    ``base_dir`` may also point directly at an *existing* run directory
    (one containing ``manifest.json``); with ``resume=True`` that run is
    continued - its manifest is kept and new events append to its stream
    (the placer truncates any post-restart duplicates first).
    """
    if resume and os.path.exists(os.path.join(base_dir, MANIFEST_FILENAME)):
        run_dir = base_dir
    else:
        rid = run_id if run_id else make_run_id(design, mode)
        run_dir = os.path.join(base_dir, rid)
        if run_id is None:
            # Auto ids are already unique, but never trample an existing run.
            k = 1
            while os.path.exists(run_dir):
                run_dir = os.path.join(base_dir, f"{rid}-{k}")
                k += 1
            rid = os.path.basename(run_dir)
        os.makedirs(run_dir, exist_ok=True)

    if resume and os.path.exists(os.path.join(run_dir, MANIFEST_FILENAME)):
        manifest = load_manifest(run_dir)
        # In flight again: the outcome of the previous attempt no longer
        # describes the run until this session finalizes.
        manifest.wall_clock_s = None
    else:
        manifest = RunManifest.create(
            design=design, mode=mode, seed=seed, options=options, run_id=rid
        )
    write_manifest(manifest, run_dir)
    recorder = MetricsRecorder(
        os.path.join(run_dir, manifest.events_file), append=resume
    )
    return RunSession(run_dir, manifest, recorder)


def pid_alive(pid: int) -> bool:
    """True if a process with ``pid`` exists (signal 0 delivers nothing)."""
    try:
        os.kill(pid, 0)
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # the pid is gone (or the platform cannot tell)
        return False
    return pid > 0


@dataclass
class RunState:
    """Where one run is, as its manifest and event stream tell it.

    ``active`` is False once the manifest is finalized (a clean end or an
    exception).  ``pid`` is the last ``run_start``'s, None before one;
    the phase, the iteration and its rate and anchor count from that
    ``run_start``.  ``ts``/``ts_mono`` stamp the last event (``started``,
    when the manifest was written, if there is none); the resource
    fields come from the last ``resource`` event.  ``extra`` is always
    empty: it keeps ``status --json``'s key set.
    """

    run_id: str
    design: str
    mode: str
    active: bool
    pid: Optional[int] = None
    phase: str = "setup"
    iteration: Optional[int] = None
    iteration_rate: Optional[float] = None
    started: float = 0.0
    ts: float = 0.0
    ts_mono: Optional[float] = None
    anchor_iteration: Optional[int] = None
    anchor_ts: Optional[float] = None
    rss_bytes: Optional[int] = None
    cpu_user_s: Optional[float] = None
    cpu_sys_s: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the run's last event (wall clock)."""
        return (time.time() if now is None else now) - self.ts

    def state(
        self,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
    ) -> str:
        """``live`` / ``stale`` / ``dead``; by age alone before a pid."""
        if self.pid is not None and not pid_alive(self.pid):
            return "dead"
        return "stale" if self.age_s(now) > stale_after_s else "live"

    def where(self) -> str:
        """``"at iteration 412 in place"``, or ``"in setup"``."""
        if self.iteration is None:
            return f"in {self.phase}"
        return f"at iteration {self.iteration} in {self.phase}"


def run_state(run_dir: str) -> Optional[RunState]:
    """The state of the run in ``run_dir``; None if it holds no manifest.

    One pass over ``events.jsonl``: each ``run_start`` (a resume appends
    one) restarts the phase, iteration and rate bookkeeping and names
    the process; a torn trailing record (the writer caught mid-write) is
    skipped.
    """
    try:
        manifest = load_manifest(run_dir)
        started = os.path.getmtime(os.path.join(run_dir, MANIFEST_FILENAME))
    except (OSError, ValueError, TypeError):
        return None
    state = RunState(
        run_id=manifest.run_id,
        design=manifest.design,
        mode=manifest.mode,
        active=manifest.wall_clock_s is None,
        started=started,
        ts=started,
    )
    try:
        events, _ = read_events_partial(
            os.path.join(run_dir, manifest.events_file)
        )
    except FileNotFoundError:  # the manifest is written first
        events = []
    anchor_mono = None
    for event in events:
        state.ts = event.get("ts", state.ts)
        # v1 streams carry no monotonic stamp: rates fall back to ``ts``.
        state.ts_mono = event.get("ts_mono")
        stamp = event.get("ts_mono", state.ts)
        kind = event.get("kind")
        if kind == "run_start":
            state.pid = event.get("pid")
            state.phase = "setup"
            state.iteration = state.iteration_rate = None
            state.anchor_iteration = state.anchor_ts = anchor_mono = None
        elif kind == "iteration":
            state.phase = "place"
            state.iteration = event["iteration"]
            if anchor_mono is None:
                anchor_mono = stamp
                state.anchor_iteration = state.iteration
                state.anchor_ts = state.ts
            steps = state.iteration - state.anchor_iteration
            dt = stamp - anchor_mono
            state.iteration_rate = steps / dt if steps > 0 and dt > 0 else None
        elif kind == "resource":
            state.rss_bytes = event.get("rss_bytes")
            state.cpu_user_s = event.get("cpu_user_s")
            state.cpu_sys_s = event.get("cpu_sys_s")
        elif kind == "run_end":
            state.phase = "sta"
    return state
