"""Deterministic, seeded fault injection for the guarded placement runtime.

The robustness layer (:mod:`repro.runtime.guard`, checkpoint rollback) is
only trustworthy if its recovery paths demonstrably fire.  This module
injects two families of faults:

**In-process faults** perturb a running placement, each matching a real
failure mode of the differentiable STA stack:

``grad_nan``
    NaN written into a chosen objective-term gradient (``wirelength``,
    ``density`` or ``timing``) at a chosen iteration - the classic
    poisoned-gradient scenario the numerical guard quarantines.
``lut_corrupt``
    NLDM LUT bank entries overwritten with NaN for exactly one iteration
    (the bank is restored at the start of the next iteration), emulating a
    transient bad table read that poisons every timing arc.
``timer_exc``
    A :class:`FaultInjectionError` raised from the middle of the
    differentiable timer's backward pass, emulating a kernel crash.

**One process-level fault** breaks a supervised suite worker
(:mod:`repro.harness.supervisor`) mid-task:

``worker_kill[:task]``
    SIGKILL the worker process while it executes suite task ``task``
    (default 0) - the supervisor must quarantine exactly that task as
    ``crash`` and respawn the worker for the tasks that remain.  It fires
    only inside a spawned worker, never in the parent or an in-process
    run.

In-process faults are *armed* only for the duration of a guarded placer
run (see :func:`armed` / :func:`current_injector`), so unit tests of the
timer kernels, gradcheck, etc. are never perturbed even when the
environment variable is set process-wide.  Each fault fires exactly once
per armed run, at the first opportunity at or after its trigger
iteration, which keeps injection deterministic and checkpoint/resume-safe
(the fired state is part of the placer checkpoint).

Specs are parsed from the ``REPRO_INJECT_FAULT`` environment variable::

    REPRO_INJECT_FAULT="grad_nan:timing@10"   # NaN timing gradient, iter 10
    REPRO_INJECT_FAULT="lut_corrupt@20"       # corrupt LUT bank at iter 20
    REPRO_INJECT_FAULT="timer_exc@15"         # raise in backward at iter 15
    REPRO_INJECT_FAULT="worker_kill:1"        # SIGKILL worker on task 1
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "GRAD_TERMS",
    "FaultInjectionError",
    "FaultSpec",
    "FaultInjector",
    "armed",
    "current_injector",
    "maybe_kill_worker",
    "worker_kill_task",
]

#: Environment variable holding the fault spec.
ENV_VAR = "REPRO_INJECT_FAULT"

#: Supported in-process fault kinds.
FAULT_KINDS = ("grad_nan", "lut_corrupt", "timer_exc")

#: Objective terms a ``grad_nan`` fault may target.
GRAD_TERMS = ("wirelength", "density", "timing")


class FaultInjectionError(RuntimeError):
    """The synthetic exception raised by the ``timer_exc`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: what to break, where, and when.

    ``iteration`` is a trigger threshold: the fault fires at the first
    opportunity at or after that placer iteration (a ``grad_nan:timing``
    fault cannot fire before the timing term activates, for example).
    """

    kind: str
    term: str = "timing"
    iteration: int = 10
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind[:term][@iteration]`` (see the module docstring)."""
        spec = text.strip()
        iteration = 10
        if "@" in spec:
            spec, _, it = spec.partition("@")
            iteration = int(it)
        kind, _, term = spec.partition(":")
        kind = kind.strip()
        term = term.strip() or "timing"
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if kind == "grad_nan" and term not in GRAD_TERMS:
            raise ValueError(
                f"unknown gradient term {term!r}; expected one of {GRAD_TERMS}"
            )
        return cls(kind=kind, term=term, iteration=iteration)

    @classmethod
    def from_env(cls) -> Optional["FaultSpec"]:
        """The spec in ``REPRO_INJECT_FAULT``, or None when unset/empty.

        A ``worker_kill`` spec is *not* an error here: it targets the
        suite supervisor, so the in-process injector treats it as "no
        fault armed".
        """
        text = os.environ.get(ENV_VAR, "").strip()
        if not text or text.lower() in ("0", "false", "off"):
            return None
        if _spec_kind(text) == "worker_kill":
            return None
        return cls.parse(text)


def _spec_kind(text: str) -> str:
    """The bare kind of a ``kind[:x][@y]`` spec string."""
    return text.partition("@")[0].partition(":")[0].strip()


def worker_kill_task() -> Optional[int]:
    """The suite task a ``worker_kill[:task]`` spec targets, or None.

    In-process specs (``grad_nan``, ...) read as "no process fault", so
    both families share the one environment variable.
    """
    text = os.environ.get(ENV_VAR, "").strip()
    if _spec_kind(text) != "worker_kill":
        return None
    task = text.partition(":")[2].strip()
    return int(task) if task else 0


def maybe_kill_worker(task_index: int) -> None:
    """SIGKILL this process if it is a spawned worker running the task
    ``worker_kill`` targets; inert in any other process (a parent or an
    in-process suite must never kill itself)."""
    if (
        multiprocessing.parent_process() is not None
        and worker_kill_task() == task_index
    ):
        os.kill(os.getpid(), signal.SIGKILL)


class FaultInjector:
    """Applies one :class:`FaultSpec` to a running placement, exactly once.

    An injector with ``spec=None`` is inert: every ``maybe_*`` call is a
    cheap no-op, so the placer can call into it unconditionally.
    """

    def __init__(self, spec: Optional[FaultSpec] = None) -> None:
        self.spec = spec
        self.fired = False
        self.fired_iteration: Optional[int] = None
        self.log: List[str] = []
        self._iteration = -1
        self._lut_backup = None  # (bank, values copy) while corruption live

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.spec is not None

    def begin_iteration(self, iteration: int) -> None:
        """Placer hook: marks the current iteration; lifts transient faults
        (a corrupted LUT bank is restored here, one iteration after it was
        corrupted)."""
        # reprolint: allow[checkpoint-completeness] transient marker, re-set by the placer hook on the first resumed iteration
        self._iteration = iteration
        if self._lut_backup is not None:
            self.restore()

    def _due(self, kind: str) -> bool:
        return (
            self.spec is not None
            and self.spec.kind == kind
            and not self.fired
            and self._iteration >= self.spec.iteration
        )

    def _mark_fired(self, message: str) -> None:
        self.fired = True
        self.fired_iteration = self._iteration
        self.log.append(f"iteration {self._iteration}: {message}")

    # ------------------------------------------------------------------
    def corrupt_grad(self, term: str, gx: np.ndarray, gy: np.ndarray) -> bool:
        """Write seeded NaNs into a term gradient if a matching fault is due."""
        if not self._due("grad_nan") or self.spec.term != term:
            return False
        rng = np.random.default_rng(self.spec.seed)
        k = max(1, len(gx) // 16)
        idx = rng.choice(len(gx), size=min(k, len(gx)), replace=False)
        gx[idx] = np.nan
        gy[idx[: max(1, len(idx) // 2)]] = np.nan
        self._mark_fired(f"injected NaN into {term} gradient ({len(idx)} cells)")
        return True

    def corrupt_lutbank(self, bank) -> bool:
        """Overwrite seeded LUT bank entries with NaN if a fault is due.

        The original values are kept and written back by the next
        :meth:`begin_iteration` (or by :meth:`restore` when the armed
        context exits), making the corruption transient.
        """
        if not self._due("lut_corrupt") or not len(bank.values):
            return False
        rng = np.random.default_rng(self.spec.seed)
        # reprolint: allow[checkpoint-completeness] holds a live LutBank reference restored within one iteration; never outlives the process
        self._lut_backup = (bank, bank.values.copy())
        flat = bank.values.reshape(-1)
        idx = rng.choice(len(flat), size=max(1, len(flat) // 8), replace=False)
        flat[idx] = np.nan
        self._mark_fired(f"corrupted {len(idx)} NLDM LUT entries")
        return True

    def maybe_raise(self, stage: str) -> None:
        """Raise :class:`FaultInjectionError` from ``stage`` if a fault is due."""
        if not self._due("timer_exc"):
            return
        self._mark_fired(f"raised FaultInjectionError in {stage}")
        raise FaultInjectionError(
            f"injected timer exception in {stage} "
            f"(iteration {self._iteration})"
        )

    def restore(self) -> None:
        """Undo any live transient corruption (LUT bank values)."""
        if self._lut_backup is not None:
            bank, values = self._lut_backup
            bank.values[...] = values
            self._lut_backup = None

    # ------------------------------------------------------------------
    # Checkpoint support: the fired state must survive a resume so that a
    # resumed run does not re-fire a fault the original run already took.
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        return {
            "fired": self.fired,
            "fired_iteration": self.fired_iteration,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        self.fired = bool(state.get("fired", False))
        self.fired_iteration = state.get("fired_iteration")


#: The injector armed by the currently running guarded placement, if any.
_CURRENT: Optional[FaultInjector] = None


def current_injector() -> Optional[FaultInjector]:
    """The armed injector of the enclosing placer run, or None."""
    return _CURRENT


@contextmanager
def armed(injector: FaultInjector):
    """Arm ``injector`` for the duration of the block (placer run scope).

    Any transient corruption still live when the block exits is restored,
    so state shared across runs (the LUT bank) never leaks a fault.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = injector
    try:
        yield injector
    finally:
        injector.restore()
        _CURRENT = previous
