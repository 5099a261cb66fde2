"""Reprolint provenance for telemetry run manifests.

:func:`analysis_provenance` runs the analyzer over the repo the process
was launched from and condenses the result into a small dict stamped
into every run manifest (see :mod:`repro.telemetry.manifest`), so
``python -m repro compare`` can flag results produced from a
tree with lint findings ("dirty" runs) or under a different rule set.
It must never break a placement run: any failure degrades to an
``{"error": ...}`` payload.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

__all__ = ["analysis_provenance"]

_CACHE: Optional[Dict[str, Any]] = None


def analysis_provenance(root: Optional[str] = None) -> Dict[str, Any]:
    """Summary of the repo's reprolint state (cached per process).

    Keys: ``rules_version``, ``finding_count``, ``suppressed_count``,
    ``clean`` - or a single ``error`` key if analysis itself failed.
    """
    global _CACHE
    if _CACHE is not None and root is None:
        return dict(_CACHE)
    try:
        from .core import find_repo_root, run_analysis

        report = run_analysis(root or find_repo_root(os.path.dirname(__file__)))
        result: Dict[str, Any] = {
            "rules_version": report.rules_version,
            "finding_count": len(report.findings),
            "suppressed_count": report.suppressed_count,
            "clean": report.clean,
        }
    except Exception as exc:  # noqa: BLE001 - must never break a run
        result = {"error": f"{type(exc).__name__}: {exc}"}
    if root is None:
        _CACHE = dict(result)
    return result
