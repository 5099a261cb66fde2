"""Zero-dependency process resource sampling.

The observability layer needs CPU time, resident-set size, and fault
counts for every run without adding a dependency (no ``psutil``).
Two sources cover that:

- :func:`resource.getrusage` (POSIX) for CPU user/sys seconds, peak RSS,
  and minor/major fault counts.  ``ru_maxrss`` is kilobytes on Linux and
  bytes on macOS; both are normalized to bytes here.
- ``/proc/self/statm`` (Linux) for the *current* RSS in pages, scaled by
  ``sysconf("SC_PAGE_SIZE")``.  Off Linux the current-RSS field falls
  back to the peak, which is the best portable approximation.

On platforms without the :mod:`resource` module (Windows) every sampler
degrades to a graceful no-op returning ``None`` - call sites already
treat a missing sample as "nothing to report".

Samples are plain dicts so they serialize straight into the run
manifest's ``resources`` roll-up and a suite record's per-task one:

``rss_bytes``        current resident set size
``peak_rss_bytes``   lifetime peak resident set size
``cpu_user_s``       cumulative user CPU seconds
``cpu_sys_s``        cumulative system CPU seconds
``minor_faults``     cumulative page reclaims (no I/O)
``major_faults``     cumulative page faults (required I/O)

CPU seconds and fault counts are *cumulative over the process lifetime*,
which matters for warm supervisor workers executing many tasks: per-task
attribution must go through :func:`resource_delta` with a sample taken
before and after the task.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

try:  # POSIX only; absent on Windows.
    import resource as _resource
except ImportError:  # pragma: no cover - exercised only off-POSIX
    _resource = None

__all__ = ["sample_resources", "resource_delta"]


def _current_rss_bytes() -> Optional[int]:
    """Current RSS from ``/proc/self/statm``, or None off Linux."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def sample_resources() -> Optional[Dict[str, Any]]:
    """One resource snapshot of the current process, or None off-POSIX."""
    if _resource is None:
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    peak = int(usage.ru_maxrss)
    if sys.platform != "darwin":
        peak *= 1024  # Linux reports kilobytes; darwin reports bytes.
    rss = _current_rss_bytes()
    return {
        "rss_bytes": peak if rss is None else rss,
        "peak_rss_bytes": peak,
        "cpu_user_s": float(usage.ru_utime),
        "cpu_sys_s": float(usage.ru_stime),
        "minor_faults": int(usage.ru_minflt),
        "major_faults": int(usage.ru_majflt),
    }


def resource_delta(
    before: Optional[Dict[str, Any]], after: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Attribute one span of work inside a long-lived process.

    CPU seconds and fault counts are differenced (they are cumulative),
    while RSS fields stay absolute: "how much memory" is a property of
    the process at the end of the span, not a rate.  Returns None when
    either sample is missing (off-POSIX).
    """
    if before is None or after is None:
        return None
    return {
        "rss_bytes": after["rss_bytes"],
        "peak_rss_bytes": after["peak_rss_bytes"],
        "cpu_user_s": after["cpu_user_s"] - before["cpu_user_s"],
        "cpu_sys_s": after["cpu_sys_s"] - before["cpu_sys_s"],
        "minor_faults": after["minor_faults"] - before["minor_faults"],
        "major_faults": after["major_faults"] - before["major_faults"],
    }

