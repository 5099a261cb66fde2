"""Run manifests: what produced a telemetry stream, and how it ended.

A manifest is the diffable identity card of one run: design, mode,
placer options, seed, source revision, interpreter/numpy versions, plus
- once the run finishes - wall-clock, final metrics, and the per-layer
span stats.  ``repro.telemetry.compare`` diffs two manifests to decide
whether a run regressed; ``repro.telemetry.report`` renders one into a
human summary.

Manifests are plain JSON (``manifest.json`` inside the run directory),
written atomically so a killed run leaves either the start-of-run or the
finalized manifest, never a torn file.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from .events import EVENTS_FILENAME, SCHEMA_VERSION

__all__ = [
    "MANIFEST_FILENAME",
    "RunManifest",
    "make_run_id",
    "git_revision",
    "git_tree_dirty",
    "write_manifest",
    "load_manifest",
]

#: Manifest filename inside a telemetry run directory.
MANIFEST_FILENAME = "manifest.json"

_RUN_COUNTER = itertools.count()


def make_run_id(design: str, mode: str) -> str:
    """Unique, sortable run id: design, mode, timestamp, pid, counter."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{design}_{mode}_{stamp}_{os.getpid()}_{next(_RUN_COUNTER)}"


def _git(args: List[str], cwd: Optional[str]) -> Optional[str]:
    """Stdout of one git command, or ``None`` outside a repo/git."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_revision(cwd: Optional[str] = None) -> str:
    """Current git revision, or ``"unknown"`` outside a repo/git."""
    out = _git(["rev-parse", "HEAD"], cwd)
    return "unknown" if out is None else out


def git_tree_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether the work tree differs from ``HEAD`` (modified, staged or
    untracked files); ``None`` outside a repo/git."""
    out = _git(["status", "--porcelain"], cwd)
    return None if out is None else bool(out)


def _numpy_version() -> str:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        return "unknown"


@dataclass
class RunManifest:
    """Identity + outcome of one telemetry run (JSON round-trippable)."""

    run_id: str
    design: str
    mode: str
    seed: int
    #: Placer/flow options as a flat JSON-ready dict.
    options: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    created: str = ""
    git_rev: str = ""
    python_version: str = ""
    numpy_version: str = ""
    platform: str = ""
    events_file: str = EVENTS_FILENAME
    #: Filled in by finalize(): total wall-clock of the run in seconds.
    wall_clock_s: Optional[float] = None
    #: Final scalar outcome (wns/tns/hpwl/overflow/iterations/...).
    final_metrics: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer span stats ``{name: {calls, total_s, self_s}}``
    #: (:func:`repro.perf.flow_stats`); manifests of older runs carry a
    #: ``span_tree`` instead, which loading drops.
    spans: Optional[Dict[str, Any]] = None
    #: reprolint provenance: rules_version, finding and suppression
    #: counts, and the ``clean`` verdict of the producing tree (see
    #: :func:`repro.analysis.provenance.analysis_provenance`).
    analysis: Optional[Dict[str, Any]] = None
    #: Design-bundle cache provenance (key, hit/miss, setup seconds) when
    #: the run's design came from :mod:`repro.netlist.cache`.
    design_cache: Optional[Dict[str, Any]] = None
    #: Supervised-execution provenance (``{"attempt": n, ...}``) stamped
    #: when the suite supervisor re-ran this task after a failure; None
    #: for first-attempt (zero-fault) runs, keeping them byte-comparable
    #: with unsupervised output.
    supervision: Optional[Dict[str, Any]] = None
    #: Resource rollup of the run (peak RSS, CPU user/sys deltas, fault
    #: counts) from :mod:`repro.telemetry.resources`; None off-POSIX or
    #: when sampling was off.  Wall-clock-class provenance: ignored by
    #: ``compare`` and stripped by the CI determinism gates.
    resources: Optional[Dict[str, Any]] = None

    @classmethod
    def create(
        cls,
        design: str,
        mode: str,
        seed: int,
        options: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
    ) -> "RunManifest":
        """Manifest for a run starting now, environment auto-collected."""
        try:
            from ..analysis.provenance import analysis_provenance

            analysis = analysis_provenance()
        except Exception:  # pragma: no cover - provenance must never gate a run
            analysis = None
        return cls(
            run_id=run_id if run_id else make_run_id(design, mode),
            design=design,
            mode=mode,
            seed=int(seed),
            options=dict(options or {}),
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            git_rev=git_revision(),
            python_version=sys.version.split()[0],
            numpy_version=_numpy_version(),
            platform=platform.platform(),
            analysis=analysis,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def write_manifest(manifest: RunManifest, directory: str) -> str:
    """Atomically write ``manifest.json`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_FILENAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, default=str)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_manifest(directory: str) -> RunManifest:
    """Load the manifest of a telemetry run directory."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    with open(path) as handle:
        return RunManifest.from_dict(json.load(handle))
