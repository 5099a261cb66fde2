"""Unified telemetry: spans, metric streams, run manifests, toolchain.

The observability layer of the placement stack:

- :mod:`repro.perf` (sibling module) - hierarchical span profiling the
  library's ``PROFILER.stage(...)`` call sites feed, plus Chrome
  ``trace_event`` export of span trees;
- :mod:`repro.telemetry.events` - typed per-iteration metric events
  streamed to JSONL (:class:`MetricsRecorder`, armed per run via
  :func:`recording`/:func:`current_recorder`);
- :mod:`repro.telemetry.registry` - the *live* layer: on-disk heartbeat
  records per active run (:class:`RunRegistry`/:class:`Heartbeat`,
  armed per run via :func:`heartbeating`/:func:`current_heartbeat`)
  with stale/dead detection behind ``python -m repro status``;
- :mod:`repro.telemetry.resources` - zero-dependency CPU/RSS/fault
  sampling streamed as ``resource`` events and rolled into manifests;
- :mod:`repro.telemetry.manifest` - run manifests (design, mode,
  options, seed, git rev, interpreter versions, outcome, span tree);
- :mod:`repro.telemetry.session` - run-directory lifecycle
  (:func:`start_run` -> :class:`RunSession`);
- :mod:`repro.telemetry.history` - append-only perf-regression ledger
  under ``benchmarks/history/`` behind ``python -m repro
  trend``;
- :mod:`repro.telemetry.report` / :mod:`repro.telemetry.compare` - the
  ``python -m repro report|compare`` toolchain (imported by the
  harness CLI; not re-exported here to keep import edges acyclic).
"""

from .events import (
    EVENT_KINDS,
    EVENTS_FILENAME,
    SCHEMA_VERSION,
    MetricsRecorder,
    current_recorder,
    iteration_series,
    kind_error_message,
    read_events,
    read_events_partial,
    recording,
    suggest_kind,
)
from .manifest import (
    MANIFEST_FILENAME,
    RunManifest,
    git_revision,
    load_manifest,
    make_run_id,
    write_manifest,
)
from .registry import (
    Heartbeat,
    HeartbeatRecord,
    RunRegistry,
    current_heartbeat,
    heartbeating,
    pid_alive,
)
from .resources import ResourceSampler, resource_delta, sample_resources
from .session import RunSession, start_run

__all__ = [
    "EVENT_KINDS",
    "EVENTS_FILENAME",
    "SCHEMA_VERSION",
    "MetricsRecorder",
    "current_recorder",
    "iteration_series",
    "kind_error_message",
    "read_events",
    "read_events_partial",
    "recording",
    "suggest_kind",
    "MANIFEST_FILENAME",
    "RunManifest",
    "git_revision",
    "load_manifest",
    "make_run_id",
    "write_manifest",
    "Heartbeat",
    "HeartbeatRecord",
    "RunRegistry",
    "current_heartbeat",
    "heartbeating",
    "pid_alive",
    "ResourceSampler",
    "resource_delta",
    "sample_resources",
    "RunSession",
    "start_run",
]
