"""Guarded placement runtime: validation, numerical guards, checkpointing.

The robustness subsystem wired through the placer stack:

- :mod:`repro.runtime.validate` - structural design validation (dangling
  pins, multi-driver nets, combinational cycles, zero-area cells,
  degenerate NLDM tables, out-of-die pins) before iteration 0;
- :mod:`repro.runtime.guard` - per-term NaN/Inf detection that
  quarantines a poisoned objective term for the iteration and escalates
  persistent faults;
- :mod:`repro.runtime.checkpoint` - periodic full-state serialization
  with restart-from-best-checkpoint on divergence and ``--resume``;
- :mod:`repro.runtime.faults` - deterministic seeded fault injection
  (``REPRO_INJECT_FAULT``) used to prove the recovery paths fire.
"""

from .checkpoint import (
    CHECKPOINT_DIR,
    CheckpointManager,
    PlacerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .faults import (
    ENV_VAR as FAULT_ENV_VAR,
    FaultInjectionError,
    FaultInjector,
    FaultSpec,
    maybe_kill_worker,
)
from .guard import NumericalGuard
from .validate import (
    DesignValidationError,
    ValidationIssue,
    ValidationReport,
    validate_design,
)

__all__ = [
    "CHECKPOINT_DIR",
    "CheckpointManager",
    "PlacerCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "FAULT_ENV_VAR",
    "FaultInjectionError",
    "FaultInjector",
    "FaultSpec",
    "maybe_kill_worker",
    "NumericalGuard",
    "DesignValidationError",
    "ValidationIssue",
    "ValidationReport",
    "validate_design",
]
