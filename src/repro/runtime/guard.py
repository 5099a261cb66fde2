"""Per-term numerical fault detection for the global placer.

The placement objective is a sum of independently computed terms
(wirelength, density, timing).  A NaN/Inf in any one of them - a blown-up
LUT extrapolation, an overflowed Elmore product, an injected fault -
poisons the combined gradient and silently corrupts the Nesterov
trajectory.  The previous behaviour (``np.nan_to_num`` on the combined
gradient) hid such events entirely.

:class:`NumericalGuard` instead checks each term's gradient the moment it
is produced.  A non-finite term is *quarantined* for that iteration: its
contribution is zeroed, a per-term counter is incremented, and the event
is logged through the ``repro.runtime`` logger.  Consecutive quarantines
of the same term signal a persistent fault and are used by the placer to
escalate (step-shrink retry, then checkpoint rollback).  Exceptions
raised by a term (a timer crash mid-backward) are recorded the same way.

Both checks are ``runtime.guard`` spans in :mod:`repro.perf`, so their
overhead shows up in ``--profile`` tables.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional

import numpy as np

from ..telemetry.events import current_recorder

__all__ = ["NumericalGuard", "LOGGER"]

LOGGER = logging.getLogger("repro.runtime")


class NumericalGuard:
    """Detects and quarantines non-finite objective-term gradients."""

    def __init__(self, log: bool = True) -> None:
        self.log = log
        #: term -> number of iterations on which the term was quarantined.
        self.quarantine_counts: Dict[str, int] = {}
        #: term -> number of exceptions caught from the term's evaluation.
        self.exception_counts: Dict[str, int] = {}
        #: term -> current run of consecutive quarantined iterations.
        self.consecutive: Dict[str, int] = {}
        #: total non-finite scalar entries seen across all checks.
        self.nonfinite_entries = 0

    # ------------------------------------------------------------------
    def check_term(self, term: str, iteration: int, *arrays: np.ndarray) -> bool:
        """Validate one term's gradient arrays; quarantine on any NaN/Inf.

        Returns True when the term is healthy.  On failure every array is
        zeroed **in place** (the term contributes nothing this iteration),
        the event is counted against ``term`` and logged, and False is
        returned.
        """
        bad = 0
        for a in arrays:
            finite = np.isfinite(a)
            if not finite.all():
                bad += int(a.size - np.count_nonzero(finite))
        if bad == 0:
            self.consecutive[term] = 0
            return True
        self.nonfinite_entries += bad
        for a in arrays:
            a[...] = 0.0
        self._record(term)
        recorder = current_recorder()
        if recorder is not None:
            recorder.event(
                "quarantine", iteration=iteration, term=term, bad_entries=bad
            )
        if self.log:
            LOGGER.warning(
                "iteration %d: %d non-finite entries in %s gradient; "
                "term quarantined for this iteration (%d total)",
                iteration, bad, term, self.quarantine_counts[term],
            )
        return False

    def record_exception(self, term: str, iteration: int, exc: BaseException) -> None:
        """Count an exception raised while evaluating ``term`` (quarantined)."""
        self.exception_counts[term] = self.exception_counts.get(term, 0) + 1
        self._record(term)
        recorder = current_recorder()
        if recorder is not None:
            recorder.event(
                "term_exception",
                iteration=iteration,
                term=term,
                error=f"{type(exc).__name__}: {exc}",
            )
        if self.log:
            LOGGER.warning(
                "iteration %d: %s evaluation raised %s: %s; "
                "term quarantined for this iteration",
                iteration, term, type(exc).__name__, exc,
            )

    def scrub(self, term: str, iteration: int, grad: np.ndarray) -> int:
        """Final safety net on the combined gradient: zero + count NaN/Inf.

        Unlike :meth:`check_term` this replaces only the offending entries
        (the healthy terms' contributions survive).  Returns the number of
        entries replaced.
        """
        finite = np.isfinite(grad)
        bad = int(grad.size - np.count_nonzero(finite))
        if bad:
            grad[~finite] = 0.0
        if bad:
            self.nonfinite_entries += bad
            self._record(term)
            if self.log:
                LOGGER.warning(
                    "iteration %d: %d non-finite entries survived into the "
                    "combined gradient; zeroed",
                    iteration, bad,
                )
        return bad

    def _record(self, term: str) -> None:
        self.quarantine_counts[term] = self.quarantine_counts.get(term, 0) + 1
        self.consecutive[term] = self.consecutive.get(term, 0) + 1

    # ------------------------------------------------------------------
    def worst_consecutive(self) -> int:
        """Longest current run of consecutive quarantines over all terms."""
        return max(self.consecutive.values(), default=0)

    def reset_consecutive(self) -> None:
        """Clear the consecutive counters (after an escalation action)."""
        for term in self.consecutive:
            self.consecutive[term] = 0

    @property
    def total_quarantines(self) -> int:
        return sum(self.quarantine_counts.values())

    def summary(self) -> Dict[str, int]:
        """Flat per-term event counts for :class:`PlacerResult` reporting."""
        out = dict(self.quarantine_counts)
        for term, n in self.exception_counts.items():
            out[f"{term}_exceptions"] = n
        return out

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        return {
            "quarantine_counts": dict(self.quarantine_counts),
            "exception_counts": dict(self.exception_counts),
            "consecutive": dict(self.consecutive),
            "nonfinite_entries": self.nonfinite_entries,
        }

    def set_state(self, state: Optional[Dict[str, object]]) -> None:
        if not state:
            return
        self.quarantine_counts = dict(state.get("quarantine_counts", {}))
        self.exception_counts = dict(state.get("exception_counts", {}))
        self.consecutive = dict(state.get("consecutive", {}))
        self.nonfinite_entries = int(state.get("nonfinite_entries", 0))
