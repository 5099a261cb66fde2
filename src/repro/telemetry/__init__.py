"""Unified telemetry: spans, metric streams, run manifests, toolchain.

The observability layer of the placement stack:

- :mod:`repro.perf` (sibling module) - the span recorder: wraps the
  layers' entry points while installed, per-layer stats that add up to
  the wall clock, Chrome ``trace_event`` export on the real timeline;
- :mod:`repro.telemetry.events` - typed per-iteration metric events
  streamed to JSONL (:class:`MetricsRecorder`, armed per run via
  :func:`recording`/:func:`current_recorder`);
- :mod:`repro.telemetry.resources` - zero-dependency CPU/RSS/fault
  sampling rolled into run manifests and per-task suite records;
- :mod:`repro.telemetry.manifest` - run manifests (design, mode,
  options, seed, git rev, interpreter versions, outcome, span stats);
- :mod:`repro.telemetry.session` - run-directory lifecycle
  (:func:`start_run` -> :class:`RunSession`) and where an unfinalized
  run was last seen (:func:`run_state` -> :class:`RunState`);
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
from .resources import resource_delta, sample_resources
from .session import RunSession, RunState, run_state, start_run

__all__ = [
    "EVENT_KINDS",
    "EVENTS_FILENAME",
    "SCHEMA_VERSION",
    "MetricsRecorder",
    "current_recorder",
    "iteration_series",
    "kind_error_message",
    "read_events",
    "recording",
    "suggest_kind",
    "MANIFEST_FILENAME",
    "RunManifest",
    "git_revision",
    "load_manifest",
    "make_run_id",
    "write_manifest",
    "resource_delta",
    "sample_resources",
    "RunSession",
    "RunState",
    "run_state",
    "start_run",
]
