"""On-disk run registry: who is running, where they are, are they alive.

The registry is the live half of the telemetry stack.  Where manifests
and event streams describe runs *after the fact*, the registry answers
"what is happening right now": every active run/worker keeps one small
JSON record under ``<telemetry_base>/registry/`` that it re-writes
(atomically, tmp + ``os.replace``) on every heartbeat:

::

    <telemetry_base>/registry/<run_id>.json
        {run_id, pid, design, mode, phase, iteration,
         started, ts, ts_mono, anchor_iteration, anchor_ts,
         rss_bytes, cpu_user_s, cpu_sys_s}

``ts`` is the wall clock of the last beat; readers in *other* processes
(``python -m repro status``) classify each record by it:

``live``
    The pid exists and the last beat is recent.
``stale``
    The pid exists but the heartbeat is older than the threshold - the
    run is hung or wedged (this is what the supervisor's timeout message
    quotes: "silent for 93s at iteration 412 in rsmt_rebuild").
``dead``
    The pid is gone: the process was SIGKILL'd or crashed before its
    clean-exit removal.  :meth:`RunRegistry.gc` deletes these; every new
    :class:`RunSession` garbage-collects on registration so abandoned
    records do not accumulate.

Writers go through :class:`Heartbeat`, a throttled updater armed for the
run scope via :func:`heartbeating` and reached from library layers via
:func:`current_heartbeat` - the exact pattern
:func:`repro.telemetry.events.current_recorder` established, so call
sites are a cheap ``None`` check when observability is off.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "REGISTRY_DIRNAME",
    "HeartbeatRecord",
    "RunRegistry",
    "Heartbeat",
    "pid_alive",
    "current_heartbeat",
    "heartbeating",
]

#: Registry directory name under a telemetry base directory.
REGISTRY_DIRNAME = "registry"

#: Default seconds-without-a-beat before a live pid counts as stale.
DEFAULT_STALE_AFTER_S = 15.0


def pid_alive(pid: int) -> bool:
    """True if a process with ``pid`` exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - no-kill platforms
        return False
    return True


@dataclass
class HeartbeatRecord:
    """One run's live state, as persisted in its registry file."""

    run_id: str
    pid: int
    design: str
    mode: str
    phase: str = "setup"
    iteration: Optional[int] = None
    #: Wall clock when the run registered.
    started: float = 0.0
    #: Wall clock of the last beat (staleness is judged against this).
    ts: float = 0.0
    #: Monotonic clock of the last beat (same-process rate math).
    ts_mono: float = 0.0
    #: First-iteration anchor for cross-process iteration-rate estimates:
    #: rate = (iteration - anchor_iteration) / (ts - anchor_ts).
    anchor_iteration: Optional[int] = None
    anchor_ts: Optional[float] = None
    #: Latest resource sample highlights, if a sampler is feeding us.
    rss_bytes: Optional[int] = None
    cpu_user_s: Optional[float] = None
    cpu_sys_s: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HeartbeatRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    # ------------------------------------------------------------------
    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the last beat (wall clock)."""
        return (time.time() if now is None else now) - self.ts

    def state(
        self,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
    ) -> str:
        """``live`` / ``stale`` / ``dead`` classification."""
        if not pid_alive(self.pid):
            return "dead"
        return "stale" if self.age_s(now) > stale_after_s else "live"

    def iteration_rate(self) -> Optional[float]:
        """Iterations/second since the anchor beat, or None."""
        if (
            self.iteration is None
            or self.anchor_iteration is None
            or self.anchor_ts is None
        ):
            return None
        dt = self.ts - self.anchor_ts
        steps = self.iteration - self.anchor_iteration
        if dt <= 0 or steps <= 0:
            return None
        return steps / dt


class RunRegistry:
    """Registry directory accessor: read, write, list, garbage-collect."""

    def __init__(self, base_dir: str) -> None:
        self.base_dir = base_dir
        self.path = os.path.join(base_dir, REGISTRY_DIRNAME)

    # -- writer side ---------------------------------------------------
    def write(self, record: HeartbeatRecord) -> str:
        """Atomically persist ``record`` (tmp + replace, pid-suffixed)."""
        os.makedirs(self.path, exist_ok=True)
        path = self._record_path(record.run_id)
        tmp = f"{path}.{record.pid}.tmp"
        with open(tmp, "w") as handle:
            json.dump(record.to_dict(), handle)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    def remove(self, run_id: str) -> bool:
        """Delete a record (clean exit); True if one existed."""
        try:
            os.unlink(self._record_path(run_id))
        except FileNotFoundError:
            return False
        return True

    # -- reader side ---------------------------------------------------
    def read(self, run_id: str) -> Optional[HeartbeatRecord]:
        """One record by run id, or None if absent/torn."""
        return self._load(self._record_path(run_id))

    def list(self) -> List[HeartbeatRecord]:
        """All readable records, sorted by registration time."""
        try:
            names = sorted(os.listdir(self.path))
        except FileNotFoundError:
            return []
        records = []
        for name in names:
            if not name.endswith(".json"):
                continue
            record = self._load(os.path.join(self.path, name))
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.started, r.run_id))
        return records

    def gc(self) -> List[HeartbeatRecord]:
        """Remove records whose pid no longer exists; returns them.

        Only *dead* records are collected - a stale record with a live
        pid is a hung run someone should look at, not garbage.
        """
        collected = []
        for record in self.list():
            if not pid_alive(record.pid):
                if self.remove(record.run_id):
                    collected.append(record)
        return collected

    # ------------------------------------------------------------------
    def _record_path(self, run_id: str) -> str:
        safe = run_id.replace(os.sep, "_")
        return os.path.join(self.path, f"{safe}.json")

    @staticmethod
    def _load(path: str) -> Optional[HeartbeatRecord]:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # Deleted or replaced mid-read; the record is atomic so a
            # parse error means it vanished, not that it is torn.
            return None
        try:
            return HeartbeatRecord.from_dict(data)
        except TypeError:
            return None


class Heartbeat:
    """Throttled writer of one run's registry record.

    ``update`` is cheap enough for the placer's per-iteration loop: a
    beat is persisted at most every ``min_interval_s`` (monotonic),
    except that a *phase change* always writes immediately - phase
    transitions are exactly what a watcher wants to see without lag.
    """

    def __init__(
        self,
        registry: RunRegistry,
        record: HeartbeatRecord,
        min_interval_s: float = 0.5,
    ) -> None:
        self.registry = registry
        self.record = record
        self.min_interval_s = float(min_interval_s)
        self._last_write_mono: Optional[float] = None
        self.closed = False
        now = time.time()
        if not record.started:
            record.started = now
        record.ts = now
        record.ts_mono = time.monotonic()
        self.registry.write(record)
        self._last_write_mono = record.ts_mono

    # ------------------------------------------------------------------
    def update(
        self,
        phase: Optional[str] = None,
        iteration: Optional[int] = None,
        resources: Optional[Dict[str, Any]] = None,
        force: bool = False,
        **extra: Any,
    ) -> bool:
        """Record progress; returns True if a beat was persisted."""
        if self.closed:
            return False
        record = self.record
        phase_changed = phase is not None and phase != record.phase
        if phase is not None:
            record.phase = phase
        if iteration is not None:
            iteration = int(iteration)
            record.iteration = iteration
            if record.anchor_iteration is None:
                record.anchor_iteration = iteration
                record.anchor_ts = time.time()
        if resources is not None:
            record.rss_bytes = resources.get("rss_bytes")
            record.cpu_user_s = resources.get("cpu_user_s")
            record.cpu_sys_s = resources.get("cpu_sys_s")
        if extra:
            record.extra.update(extra)

        now_mono = time.monotonic()
        if (
            not force
            and not phase_changed
            and self._last_write_mono is not None
            and now_mono - self._last_write_mono < self.min_interval_s
        ):
            return False
        record.ts = time.time()
        record.ts_mono = now_mono
        self.registry.write(record)
        self._last_write_mono = now_mono
        return True

    def close(self, remove: bool = True) -> None:
        """End the heartbeat; by default the record is removed (clean
        exit).  ``remove=False`` leaves the last beat on disk for a
        post-mortem reader."""
        if self.closed:
            return
        self.closed = True
        if remove:
            self.registry.remove(self.record.run_id)


#: The heartbeat armed by the currently running session, if any.
_CURRENT: Optional[Heartbeat] = None


def current_heartbeat() -> Optional[Heartbeat]:
    """The armed heartbeat of the enclosing run, or None."""
    return _CURRENT


@contextmanager
def heartbeating(heartbeat: Optional[Heartbeat]):
    """Arm ``heartbeat`` for the duration of the block (run scope)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = heartbeat
    try:
        yield heartbeat
    finally:
        _CURRENT = previous
