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

The two files are also the only record of a run that never finalized:
:func:`run_state` reads back where it was last seen (phase, iteration,
time of the last event) for ``python -m repro report`` and the
supervisor's quarantine message.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .events import MetricsRecorder, read_events
from .manifest import (
    MANIFEST_FILENAME,
    RunManifest,
    load_manifest,
    make_run_id,
    write_manifest,
)
from .resources import resource_delta, sample_resources

__all__ = ["RunSession", "RunState", "run_state", "start_run"]


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


@dataclass
class RunState:
    """Where a run was last seen, as its event stream tells it.

    ``phase`` and ``iteration`` count from the last ``run_start`` (a
    resume appends one); ``ts`` is the wall-clock stamp of the last
    event, or when the manifest was written if there is none.
    """

    phase: str
    iteration: Optional[int]
    ts: float

    def age_s(self) -> float:
        """Seconds since the run's last event (wall clock)."""
        return time.time() - self.ts

    def where(self) -> str:
        """``"at iteration 412 in place"``, or ``"in setup"``."""
        if self.iteration is None:
            return f"in {self.phase}"
        return f"at iteration {self.iteration} in {self.phase}"


def run_state(run_dir: str) -> Optional[RunState]:
    """Where the run in ``run_dir`` was last seen; None without a manifest.

    Phases: ``setup`` until the first iteration after the last
    ``run_start``, ``place`` after it, ``sta`` once ``run_end`` is
    written.  A torn trailing record (the writer caught mid-write) is
    dropped by :func:`read_events`.
    """
    try:
        manifest = load_manifest(run_dir)
        started = os.path.getmtime(os.path.join(run_dir, MANIFEST_FILENAME))
    except (OSError, ValueError, TypeError):
        return None
    state = RunState(phase="setup", iteration=None, ts=started)
    try:
        events = read_events(os.path.join(run_dir, manifest.events_file))
    except FileNotFoundError:  # the manifest is written first
        events = []
    for event in events:
        state.ts = event.get("ts", state.ts)
        kind = event.get("kind")
        if kind == "run_start":
            state.phase, state.iteration = "setup", None
        elif kind == "iteration":
            state.phase, state.iteration = "place", event["iteration"]
        elif kind == "run_end":
            state.phase = "sta"
    return state
