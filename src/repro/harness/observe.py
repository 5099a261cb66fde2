"""Live-run observation: the ``status`` and ``tail`` subcommands.

``status`` lists every unfinalized run under a telemetry directory -
phase, iteration, rate, RSS, age of its last event, live/stale/dead -
as :func:`repro.telemetry.session.run_state` reads it back out of the
run's directory; the runs themselves are never touched.

``tail`` follows one run's ``events.jsonl`` while it is being written,
printing per-iteration convergence deltas and an ETA derived from the
iteration cadence.  Reads are torn-line safe: a partial trailing record
(the writer mid-``write``) stays buffered until its newline arrives.
Rate/ETA math prefers the monotonic ``ts_mono`` stamps (schema v2) so a
wall-clock step does not corrupt the estimates; v1 streams fall back to
``ts``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from ..telemetry.events import EVENTS_FILENAME, read_events_partial
from ..telemetry.session import DEFAULT_STALE_AFTER_S, RunState, run_state

__all__ = [
    "format_status",
    "cmd_status",
    "EventFollower",
    "cmd_tail",
]


def _format_bytes(n: Optional[int]) -> str:
    if n is None:
        return "-"
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TB"  # pragma: no cover - loop always returns


def _format_age(seconds: float) -> str:
    if seconds < 120.0:
        return f"{seconds:.0f}s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.0f}m"
    return f"{seconds / 3600.0:.1f}h"


def _active_runs(telemetry_dir: str) -> List[RunState]:
    """The unfinalized runs under ``telemetry_dir``, oldest first."""
    try:
        entries = sorted(os.listdir(telemetry_dir))
    except FileNotFoundError:
        return []
    states = [run_state(os.path.join(telemetry_dir, e)) for e in entries]
    active = [s for s in states if s is not None and s.active]
    return sorted(active, key=lambda s: (s.started, s.run_id))


def format_status(
    records: List[RunState],
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> str:
    """The active runs as an aligned table (one row per run)."""
    header = (
        f"{'RUN':<28} {'DESIGN':<12} {'MODE':<10} {'PHASE':<12} "
        f"{'ITER':>6} {'IT/S':>6} {'RSS':>9} {'AGE':>5} STATE"
    )
    if not records:
        return header + "\n(no active runs)"
    now = time.time()
    lines = [header]
    for record in records:
        rate = record.iteration_rate
        lines.append(
            f"{record.run_id:<28} {record.design:<12} {record.mode:<10} "
            f"{record.phase:<12} "
            f"{record.iteration if record.iteration is not None else '-':>6} "
            f"{f'{rate:.1f}' if rate is not None else '-':>6} "
            f"{_format_bytes(record.rss_bytes):>9} "
            f"{_format_age(record.age_s(now)):>5} "
            f"{record.state(stale_after_s, now)}"
        )
    return "\n".join(lines)


def cmd_status(
    telemetry_dir: str,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    as_json: bool = False,
) -> int:
    """Implementation of ``python -m repro status``."""
    records = _active_runs(telemetry_dir)
    if as_json:
        now = time.time()
        payload = [
            dict(
                asdict(record),
                state=record.state(stale_after_s, now),
                age_s=round(record.age_s(now), 3),
            )
            for record in records
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(format_status(records, stale_after_s))
    return 0


# ----------------------------------------------------------------------
# tail
# ----------------------------------------------------------------------
class EventFollower:
    """Incremental, torn-line-safe reader of a growing JSONL stream.

    Each :meth:`poll` returns the events whose lines completed since the
    last poll.  A trailing fragment without its newline stays in the
    carry buffer; a complete-but-unparsable line is counted in
    ``skipped`` and dropped (the writer crashed mid-record and the run
    appended past it - rare, but a follower must not wedge on it).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self._carry = ""
        self.skipped = 0

    def poll(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path) as handle:
                handle.seek(self._offset)
                chunk = handle.read()
                self._offset = handle.tell()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        buffered = self._carry + chunk
        lines = buffered.split("\n")
        self._carry = lines.pop()  # "" when the chunk ended on a newline
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                self.skipped += 1
        return events


def _event_time(event: Dict[str, Any]) -> Optional[float]:
    """Monotonic stamp when present (v2), wall clock otherwise (v1)."""
    if "ts_mono" in event:
        return float(event["ts_mono"])
    if "ts" in event:
        return float(event["ts"])
    return None


class _TailState:
    """Convergence bookkeeping across iteration events."""

    def __init__(self) -> None:
        self.max_iters: Optional[int] = None
        self.prev_hpwl: Optional[float] = None
        self.prev_iteration: Optional[int] = None
        self.prev_time: Optional[float] = None
        self.last_rate: Optional[float] = None

    def observe_start(self, event: Dict[str, Any]) -> str:
        self.max_iters = event.get("max_iters")
        return (
            f"run_start design={event.get('design')} "
            f"seed={event.get('seed')} "
            f"max_iters={self.max_iters} resumed={event.get('resumed')}"
        )

    def observe_iteration(self, event: Dict[str, Any]) -> str:
        iteration = event.get("iteration")
        metrics = event.get("metrics") or {}
        now = _event_time(event)
        rate: Optional[float] = None
        if (
            now is not None
            and self.prev_time is not None
            and iteration is not None
            and self.prev_iteration is not None
            and now > self.prev_time
            and iteration > self.prev_iteration
        ):
            rate = (iteration - self.prev_iteration) / (now - self.prev_time)
            self.last_rate = rate
        hpwl = metrics.get("hpwl")
        delta = ""
        if hpwl is not None and self.prev_hpwl not in (None, 0.0):
            delta = f" ({100.0 * (hpwl - self.prev_hpwl) / self.prev_hpwl:+.2f}%)"
        line = f"it {iteration}"
        if self.max_iters:
            line += f"/{self.max_iters}"
        if hpwl is not None:
            line += f" hpwl {hpwl:.4e}{delta}"
        if "overflow" in metrics:
            line += f" overflow {metrics['overflow']:.3f}"
        if "tns" in metrics:
            line += f" tns {metrics['tns']:.1f}"
        if rate is not None:
            line += f" {rate:.1f} it/s"
            if self.max_iters and iteration is not None:
                remaining = max(int(self.max_iters) - int(iteration), 0)
                line += f" eta<={remaining / rate:.0f}s"
        if hpwl is not None:
            self.prev_hpwl = hpwl
        if iteration is not None and now is not None:
            self.prev_iteration = iteration
            self.prev_time = now
        return line


def _resolve_events_path(target: str, run_id: Optional[str]) -> str:
    """Locate the events file of ``target`` (+ optional ``run_id``)."""
    if os.path.isfile(target):
        return target
    if run_id is not None:
        return os.path.join(target, run_id, EVENTS_FILENAME)
    direct = os.path.join(target, EVENTS_FILENAME)
    if os.path.exists(direct):
        return direct
    # A telemetry base dir: tail is unambiguous only with one run.
    try:
        candidates = sorted(
            entry
            for entry in os.listdir(target)
            if os.path.exists(os.path.join(target, entry, EVENTS_FILENAME))
        )
    except FileNotFoundError:
        candidates = []
    if len(candidates) == 1:
        return os.path.join(target, candidates[0], EVENTS_FILENAME)
    if candidates:
        raise SystemExit(
            f"{target} holds {len(candidates)} runs; pick one with "
            f"--run (e.g. --run {candidates[0]})"
        )
    return direct  # let the follower report file-not-found semantics


def _render_event(event: Dict[str, Any], state: _TailState) -> Optional[str]:
    kind = event.get("kind")
    if kind == "run_start":
        return state.observe_start(event)
    if kind == "iteration":
        return state.observe_iteration(event)
    if kind == "resource":
        rss = _format_bytes(event.get("rss_bytes"))
        return (
            f"resource rss {rss} cpu {event.get('cpu_user_s', 0.0):.1f}s"
            f"+{event.get('cpu_sys_s', 0.0):.1f}s sys"
        )
    if kind == "run_end":
        return (
            f"run_end stop={event.get('stop_reason')} "
            f"iterations={event.get('iterations')} "
            f"hpwl={event.get('hpwl'):.4e} "
            f"overflow={event.get('overflow'):.3f}"
        )
    if kind in ("quarantine", "term_exception", "recovery", "checkpoint"):
        extras = {
            k: v
            for k, v in event.items()
            if k not in ("ts", "ts_mono", "kind", "iteration")
        }
        return f"{kind} it={event.get('iteration')} {extras}"
    return None


def cmd_tail(
    target: str,
    run_id: Optional[str] = None,
    once: bool = False,
    interval_s: float = 0.5,
    timeout_s: Optional[float] = None,
    out=None,
) -> int:
    """Implementation of ``python -m repro tail``.

    ``once`` parses whatever the stream currently holds and prints a
    summary line (CI mode; exits 0 even mid-run).  Otherwise the stream
    is followed until its ``run_end`` event, ``timeout_s`` elapses, or
    interrupt.
    """
    out = out if out is not None else sys.stdout
    path = _resolve_events_path(target, run_id)
    state = _TailState()

    if once:
        try:
            events, skipped = read_events_partial(path)
        except FileNotFoundError:
            print(f"no event stream at {path}", file=out)
            return 1
        ended = False
        for event in events:
            line = _render_event(event, state)
            if line is not None:
                print(line, file=out)
            ended = ended or event.get("kind") == "run_end"
        print(
            f"-- {len(events)} event(s), {skipped} torn partial record(s) "
            f"skipped, run {'ended' if ended else 'in flight'}",
            file=out,
        )
        return 0

    follower = EventFollower(path)
    deadline = (
        time.monotonic() + timeout_s if timeout_s is not None else None
    )
    try:
        while True:
            for event in follower.poll():
                line = _render_event(event, state)
                if line is not None:
                    print(line, file=out, flush=True)
                if event.get("kind") == "run_end":
                    return 0
            if deadline is not None and time.monotonic() >= deadline:
                print("tail: timeout reached, run still in flight", file=out)
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive escape
        return 0
