"""Checkpoint/restart for the global placer.

A :class:`PlacerCheckpoint` captures the *complete* optimization state at
the top of one placer iteration: positions, optimizer internals (Nesterov
momentum, Barzilai-Borwein step bounds), the density-penalty weight, net
weights, divergence-guard history, RNG state, guard counters, the fault
injector's fired flag, and any extension state registered by the flow
(e.g. the timing objective's Steiner-forest coordinates and ramp
counters).  Restoring a checkpoint and rerunning therefore reproduces the
remaining trajectory bit for bit - the property the resume tests assert.

Checkpoints are plain pickles of numpy arrays and scalars written to
``benchmarks/results/checkpoints/`` by default.  They are trusted local
artifacts of your own runs; do not load checkpoints from untrusted
sources (pickle executes code on load).

:class:`CheckpointManager` owns the periodic-save policy: every
``every`` iterations, keeping the ``keep`` most recent files plus the
*best* one (lowest density overflow), which is the rollback target when a
run diverges.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..telemetry.events import current_recorder

__all__ = [
    "CHECKPOINT_DIR",
    "PlacerCheckpoint",
    "CheckpointManager",
    "save_checkpoint",
    "load_checkpoint",
]

#: Default checkpoint destination (relative to the working directory).
CHECKPOINT_DIR = os.path.join("benchmarks", "results", "checkpoints")

#: Format marker stored in every checkpoint file.
_FORMAT_VERSION = 1


@dataclass
class PlacerCheckpoint:
    """Full placer state as of the *top* of ``iteration`` (pre-gradient)."""

    design: str
    iteration: int
    pos: np.ndarray
    optimizer: Dict[str, Any]
    lam: Optional[float]
    net_weights: np.ndarray
    overflow: float
    prev_overflow: float
    best_overflow: float
    best_pos: np.ndarray
    recent_hpwl: List[float]
    rng_state: Dict[str, Any]
    guard_state: Dict[str, Any] = field(default_factory=dict)
    injector_state: Dict[str, Any] = field(default_factory=dict)
    #: Extension state keyed by provider name (e.g. ``timing_objective``).
    extra: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    version: int = _FORMAT_VERSION


def save_checkpoint(checkpoint: PlacerCheckpoint, path: str) -> str:
    """Serialize a checkpoint to ``path`` (parent directories created)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)  # atomic: a killed run never leaves half a file
    return path


def load_checkpoint(path: str) -> PlacerCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as handle:
        checkpoint = pickle.load(handle)
    if not isinstance(checkpoint, PlacerCheckpoint):
        raise ValueError(f"{path!r} is not a placer checkpoint")
    if checkpoint.version != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has format version {checkpoint.version}; "
            f"this build reads version {_FORMAT_VERSION}"
        )
    return checkpoint


class CheckpointManager:
    """Periodic checkpointing with retention and a best-state rollback target."""

    def __init__(
        self,
        directory: Optional[str] = None,
        prefix: str = "placer",
        every: int = 0,
        keep: int = 3,
    ) -> None:
        self.directory = directory if directory is not None else CHECKPOINT_DIR
        self.prefix = prefix
        self.every = int(every)
        self.keep = max(int(keep), 1)
        #: (iteration, overflow, path) of checkpoints written this run.
        self.saved: List[Tuple[int, float, str]] = []

    @property
    def enabled(self) -> bool:
        return self.every > 0

    def path_for(self, iteration: int) -> str:
        return os.path.join(
            self.directory, f"{self.prefix}_iter{iteration:06d}.ckpt"
        )

    # ------------------------------------------------------------------
    def maybe_save(
        self, iteration: int, make: Callable[[], PlacerCheckpoint]
    ) -> Optional[str]:
        """Save on the period (skipping iteration 0); returns the path."""
        if not self.enabled or iteration == 0 or iteration % self.every:
            return None
        checkpoint = make()
        path = save_checkpoint(checkpoint, self.path_for(iteration))
        self.saved.append((iteration, float(checkpoint.overflow), path))
        self._prune()
        recorder = current_recorder()
        if recorder is not None:
            recorder.event(
                "checkpoint",
                iteration=iteration,
                action="save",
                path=path,
                overflow=float(checkpoint.overflow),
            )
        return path

    def _prune(self) -> None:
        """Drop old files beyond ``keep``, always sparing the best one."""
        if len(self.saved) <= self.keep:
            return
        protected = {self.best_path(), self.latest_path()}
        for iteration, overflow, path in self.saved[: -self.keep]:
            if path in protected:
                continue
            self.saved.remove((iteration, overflow, path))
            try:
                os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def latest_path(self) -> Optional[str]:
        return self.saved[-1][2] if self.saved else None

    def best_path(self) -> Optional[str]:
        """Checkpoint with the lowest recorded overflow (rollback target)."""
        if not self.saved:
            return None
        return min(self.saved, key=lambda rec: rec[1])[2]

    def load_best(self) -> Optional[PlacerCheckpoint]:
        path = self.best_path()
        return load_checkpoint(path) if path else None
