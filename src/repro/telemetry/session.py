"""One telemetry run: a directory with a manifest and an event stream.

:func:`start_run` creates (or, for resumes, re-opens) a run directory

::

    <base>/<run_id>/
        manifest.json     # identity + (after finalize) outcome
        events.jsonl      # typed metric stream (repro.telemetry.events)

and hands back a :class:`RunSession` whose recorder is armed around the
placement with :func:`repro.telemetry.events.recording`.  The session
also registers a live heartbeat record in the telemetry base's registry
(:mod:`repro.telemetry.registry`), and snapshots process resources so
``finalize`` can roll a CPU/RSS summary into the manifest.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from .events import EVENTS_FILENAME, MetricsRecorder
from .manifest import (
    MANIFEST_FILENAME,
    RunManifest,
    load_manifest,
    make_run_id,
    write_manifest,
)
from .registry import Heartbeat, HeartbeatRecord, RunRegistry
from .resources import resource_delta, sample_resources

__all__ = ["RunSession", "start_run"]


class RunSession:
    """Owns one run directory's manifest + recorder lifecycle."""

    def __init__(
        self,
        run_dir: str,
        manifest: RunManifest,
        recorder: MetricsRecorder,
        registry_dir: Optional[str] = None,
    ) -> None:
        self.run_dir = run_dir
        self.manifest = manifest
        self.recorder = recorder
        self._t0 = time.perf_counter()
        self._resources_start = sample_resources()
        self.heartbeat: Optional[Heartbeat] = None
        if registry_dir is not None:
            registry = RunRegistry(registry_dir)
            # Sweep records left by SIGKILL'd runs before adding ours.
            registry.gc()
            self.heartbeat = Heartbeat(
                registry,
                HeartbeatRecord(
                    run_id=manifest.run_id,
                    pid=os.getpid(),
                    design=manifest.design,
                    mode=manifest.mode,
                    phase="setup",
                ),
            )

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    def finalize(
        self,
        final_metrics: Optional[Dict[str, Any]] = None,
        spans: Optional[Dict[str, Any]] = None,
    ) -> RunManifest:
        """Record the outcome, write the manifest, release the stream.

        ``spans`` are the run's per-layer span stats
        (:func:`repro.perf.flow_stats`).  A clean finalize also removes
        the run's registry record - a record that outlives its pid is the
        signature of a killed run.
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
        if self.heartbeat is not None:
            self.heartbeat.close(remove=True)
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
        manifest = load_manifest(run_dir)
        recorder = MetricsRecorder(
            os.path.join(run_dir, manifest.events_file), append=True
        )
        return RunSession(
            run_dir,
            manifest,
            recorder,
            registry_dir=os.path.dirname(os.path.abspath(run_dir)),
        )

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

    existing = resume and os.path.exists(
        os.path.join(run_dir, MANIFEST_FILENAME)
    )
    if existing:
        manifest = load_manifest(run_dir)
    else:
        manifest = RunManifest.create(
            design=design, mode=mode, seed=seed, options=options, run_id=rid
        )
        write_manifest(manifest, run_dir)
    recorder = MetricsRecorder(
        os.path.join(run_dir, manifest.events_file), append=existing or resume
    )
    return RunSession(
        run_dir,
        manifest,
        recorder,
        registry_dir=base_dir,
    )
