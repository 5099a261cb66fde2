"""Typed metric-event streams persisted as JSONL.

One run of the placer stack produces a stream of *events* - per-iteration
scalar snapshots, counters, guard quarantines, recovery actions,
checkpoint saves - appended line-by-line to an ``events.jsonl`` file so
trajectories survive the process and can be diffed across runs.

Schema (version :data:`SCHEMA_VERSION`): every event is one JSON object
per line carrying at least

``ts``
    Wall-clock POSIX timestamp (float seconds) at emission.
``ts_mono``
    Monotonic timestamp (float seconds, ``time.monotonic()``) at
    emission.  Only comparable *within* one process's stream; live
    tailing uses it for iteration-rate/ETA math so the numbers survive
    wall-clock adjustments (NTP steps, suspend).  New in schema v2 -
    v1 streams simply lack the field and readers must fall back to
    ``ts``.
``kind``
    One of :data:`EVENT_KINDS`.
``iteration``
    Placer iteration the event belongs to, or ``null`` for events
    outside the iteration loop.

Kind-specific payloads:

=================  ====================================================
kind               extra fields
=================  ====================================================
``run_start``      ``design``, ``optimizer``, ``seed``, ``max_iters``,
                   ``resumed``
``iteration``      ``metrics`` - dict of scalar series values (hpwl,
                   overflow, lambda, tns_smoothed, wns_smoothed,
                   tns_frac, wns_frac, lse_saturation, rsmt_cache_hit,
                   wns, tns, ...)
``counter``        ``name``, ``value`` (monotonic cumulative count)
``quarantine``     ``term``, ``bad_entries`` (numerical-guard event)
``term_exception`` ``term``, ``error`` (objective term raised)
``recovery``       ``action`` (``optimizer_restart`` /
                   ``checkpoint_rollback`` / ``diverged_stop``),
                   optional ``fault_iteration``/``target_iteration``
                   (rollbacks carry ``iteration: null`` so iteration
                   truncation on restart keeps them)
``checkpoint``     ``action`` (``save``/``load``), ``path``,
                   ``overflow``
``resource``       ``rss_bytes``, ``peak_rss_bytes``, ``cpu_user_s``,
                   ``cpu_sys_s``, ``minor_faults``, ``major_faults``
                   (process resource sample from
                   ``repro.telemetry.resources``, throttled; new in
                   schema v2)
``run_end``        ``stop_reason``, ``iterations``, ``hpwl``,
                   ``overflow``, ``recoveries``,
                   ``quarantined_iterations``, ``nonfinite_events``
``task_retry``     ``run_id``, ``task_index``, ``attempt``,
                   ``failure`` (supervisor taxonomy kind), ``error``,
                   ``delay_s`` (suite supervisor; iteration is null)
``task_quarantine`` ``run_id``, ``task_index``, ``attempts``,
                   ``failure``, ``error`` (task exhausted its retries)
``worker_respawn`` ``pid`` (dead worker), ``run_id`` (in-flight task),
                   ``failure`` (why the worker died)
``note``           free-form ``message``
=================  ====================================================

Library layers reach the active recorder through
:func:`current_recorder` (armed with the :func:`recording` context
manager around a run), mirroring the fault-injection pattern: when no
recorder is armed every telemetry call site is a cheap ``None`` check.

Version history:

- v1: initial 13-kind schema (PR 3/7), wall-clock ``ts`` only.
- v2: adds ``ts_mono`` to every event and the ``resource`` kind.
  Readers stay back-compatible: v1 records are valid v2 records minus
  the monotonic stamp.
"""

from __future__ import annotations

import difflib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "EVENTS_FILENAME",
    "suggest_kind",
    "kind_error_message",
    "MetricsRecorder",
    "current_recorder",
    "recording",
    "read_events",
    "read_events_partial",
    "iteration_series",
]

#: Version stamp of the event schema (bumped on incompatible changes).
SCHEMA_VERSION = 2

#: Default events filename inside a telemetry run directory.
EVENTS_FILENAME = "events.jsonl"

#: Every event kind the stream may contain.
EVENT_KINDS = (
    "run_start",
    "iteration",
    "counter",
    "quarantine",
    "term_exception",
    "recovery",
    "checkpoint",
    "resource",
    "run_end",
    "task_retry",
    "task_quarantine",
    "worker_respawn",
    "note",
)


def suggest_kind(kind: str) -> Optional[str]:
    """Closest valid event kind to ``kind``, or None if nothing is close."""
    matches = difflib.get_close_matches(kind, EVENT_KINDS, n=1, cutoff=0.6)
    return matches[0] if matches else None


def kind_error_message(kind: str) -> str:
    """Diagnostic for an unknown event kind, with a nearest-match hint.

    Shared by :meth:`MetricsRecorder.event` and the
    ``telemetry-kind-literal`` rule of ``repro.analysis`` so the runtime
    error and the lint finding read identically.
    """
    message = f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
    suggestion = suggest_kind(kind)
    if suggestion is not None:
        message += f" (did you mean {suggestion!r}?)"
    return message


def _json_default(value: Any):
    """Coerce numpy scalars/arrays into JSON-native types."""
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "ndim", None) in (None, 0):
        return value.item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return value.tolist()
    raise TypeError(
        f"{type(value).__name__} is not JSON serializable in a telemetry event"
    )


class MetricsRecorder:
    """Append-only JSONL event stream for one run (thread-safe).

    ``append=True`` opens an existing stream for continuation (the
    ``--resume`` path); combined with :meth:`truncate_from` the resumed
    process drops any events at or past its restart iteration first, so
    the stream never holds duplicate iterations.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        self.n_events = 0
        self._lock = threading.Lock()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a" if append else "w")

    # ------------------------------------------------------------------
    def event(
        self, kind: str, iteration: Optional[int] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Append one event; returns the emitted dict."""
        if kind not in EVENT_KINDS:
            raise ValueError(kind_error_message(kind))
        record: Dict[str, Any] = {
            "ts": time.time(),
            "ts_mono": time.monotonic(),
            "kind": kind,
            "iteration": None if iteration is None else int(iteration),
        }
        record.update(fields)
        line = json.dumps(record, default=_json_default)
        with self._lock:
            if self._fh.closed:
                raise ValueError(f"recorder for {self.path!r} is closed")
            self._fh.write(line + "\n")
            self._fh.flush()
            self.n_events += 1
        return record

    def iteration(self, iteration: int, metrics: Dict[str, float]) -> None:
        """Per-iteration scalar snapshot (the convergence series)."""
        self.event("iteration", iteration=iteration, metrics=dict(metrics))

    def counter(
        self, name: str, value: int, iteration: Optional[int] = None
    ) -> None:
        """Cumulative counter sample (e.g. Steiner rebuilds so far)."""
        self.event("counter", iteration=iteration, name=name, value=int(value))

    # ------------------------------------------------------------------
    def truncate_from(self, iteration: int) -> int:
        """Drop already-recorded events at or past ``iteration``.

        Called by the placer when resuming from a checkpoint: events the
        restarted trajectory will re-emit are removed so the stream stays
        a single, duplicate-free history.  Events without an iteration
        (``run_start`` of the original run, counters emitted outside the
        loop) are kept.  Returns the number of dropped events.
        """
        with self._lock:
            self._fh.flush()
            self._fh.close()
            kept: List[str] = []
            dropped = 0
            try:
                with open(self.path) as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        record = json.loads(line)
                        it = record.get("iteration")
                        if it is not None and it >= iteration:
                            dropped += 1
                            continue
                        kept.append(line if line.endswith("\n") else line + "\n")
            except FileNotFoundError:
                pass
            with open(self.path, "w") as handle:
                handle.writelines(kept)
            self._fh = open(self.path, "a")
        return dropped

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "MetricsRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


#: The recorder armed by the currently running telemetry session, if any.
_CURRENT: Optional[MetricsRecorder] = None


def current_recorder() -> Optional[MetricsRecorder]:
    """The armed recorder of the enclosing telemetry run, or None."""
    return _CURRENT


@contextmanager
def recording(recorder: MetricsRecorder):
    """Arm ``recorder`` for the duration of the block (run scope)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder
    try:
        yield recorder
    finally:
        _CURRENT = previous


def read_events_partial(path: str) -> "tuple[List[Dict[str, Any]], int]":
    """Parse a JSONL event stream, tolerating a torn trailing record.

    A stream read *mid-write* (live ``tail``/``status`` against an
    in-flight run) may end in a partial line: either the final line has
    no terminating newline yet, or it has one but the JSON payload was
    cut short by the OS scheduling the reader between two ``write``
    syscalls.  Such a trailing fragment is skipped and counted instead
    of raising.  A malformed line in the *middle* of the file is still
    an error - that is corruption, not an in-flight write.

    Returns ``(events, skipped)`` where ``skipped`` is 0 or 1.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(json.loads(stripped))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                return events, 1
            raise
    return events, 0


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event stream back into a list of dicts.

    Tolerates (and silently drops) a torn trailing partial record so
    reading an in-flight stream is safe; use :func:`read_events_partial`
    to observe the skip count.
    """
    events, _skipped = read_events_partial(path)
    return events


def iteration_series(
    events: List[Dict[str, Any]]
) -> Dict[str, List[Any]]:
    """Extract per-metric (iterations, values) series from a stream.

    Returns ``{metric: ([iterations], [values])}`` over every
    ``iteration`` event that carries the metric.
    """
    series: Dict[str, Any] = {}
    for record in events:
        if record.get("kind") != "iteration":
            continue
        it = record.get("iteration")
        for key, value in (record.get("metrics") or {}).items():
            xs, ys = series.setdefault(key, ([], []))
            xs.append(it)
            ys.append(value)
    return series
