"""Structural design validation run before placement iteration 0.

A malformed netlist does not crash the placer - it silently corrupts it:
a dangling pin contributes a frozen gradient, a multi-driver net makes
the timing graph ambiguous, a combinational cycle deadlocks levelisation,
a zero-area cell breaks the density model's area accounting, and a
degenerate NLDM table poisons every delay query through it.  The checks
here catch all of these up front and report them as a typed
:class:`ValidationReport` instead of a failure hundreds of iterations in.

Checks (``check`` field of each issue):

- ``dangling_pin``       unconnected input pins (error) / output pins (warning)
- ``undriven_net``       nets with sinks but no driver pin
- ``multi_driver_net``   nets driven by more than one output pin
- ``degenerate_net``     single-pin nets (warning; skipped by the timers)
- ``zero_area_cell``     non-port cells with zero or negative area
- ``nldm_lut``           missing/non-finite/degenerate NLDM LUT corners
- ``pin_outside_die``    pins placed outside the die (error for fixed cells)
- ``combinational_cycle`` cycles in the propagation DAG (via levelisation)

Run by :class:`~repro.place.placer.GlobalPlacer` when
``PlacerOptions.validate`` is set, and by the harness ``--validate`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..netlist.design import Design
from ..netlist.library import FALL, RISE, ArcKind
from ..netlist.lut import LUT
from ..sta.graph import CombinationalCycleError, TimingGraph

__all__ = [
    "ValidationIssue",
    "ValidationReport",
    "DesignValidationError",
    "validate_design",
]

#: Cap on per-check example messages; further offenders are summarised.
_MAX_EXAMPLES = 8

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """One finding: which check fired, how bad, and on what."""

    check: str
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.upper():7s}] {self.check}: {self.message}"


@dataclass
class ValidationReport:
    """All findings of one :func:`validate_design` run."""

    design: str
    issues: List[ValidationIssue] = field(default_factory=list)
    #: Checks that ran (a check with no issues passed cleanly).
    checks_run: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == ERROR]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings do not fail a run)."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        """Issue counts per check name."""
        out: Dict[str, int] = {}
        for issue in self.issues:
            out[issue.check] = out.get(issue.check, 0) + 1
        return out

    def add(self, check: str, severity: str, message: str) -> None:
        self.issues.append(ValidationIssue(check, severity, message))

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise DesignValidationError(self)

    def format(self) -> str:
        """Human-readable multi-line report."""
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"validation of {self.design!r}: {verdict} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings, "
            f"{len(self.checks_run)} checks)"
        ]
        lines.extend(f"  {issue}" for issue in self.issues)
        return "\n".join(lines)


class DesignValidationError(RuntimeError):
    """Raised when a run refuses to start on a design that failed validation."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        super().__init__(report.format())


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _capped(report, check, severity, messages: List[str]) -> None:
    """Emit at most ``_MAX_EXAMPLES`` issues, summarising the remainder."""
    for message in messages[:_MAX_EXAMPLES]:
        report.add(check, severity, message)
    if len(messages) > _MAX_EXAMPLES:
        report.add(
            check, severity,
            f"... and {len(messages) - _MAX_EXAMPLES} more",
        )


def _check_pins(design: Design, report: ValidationReport) -> None:
    report.checks_run.append("dangling_pin")
    dangling = np.nonzero(design.pin2net < 0)[0]
    errors: List[str] = []
    warnings: List[str] = []
    for p in dangling.tolist():
        name = design.pin_name[p]
        if design.pin_is_clock[p]:
            errors.append(f"clock pin {name!r} is unconnected")
        elif design.pin_dir[p] == 0:
            errors.append(f"input pin {name!r} is not connected to any net")
        else:
            warnings.append(f"output pin {name!r} drives no net")
    _capped(report, "dangling_pin", ERROR, errors)
    _capped(report, "dangling_pin", WARNING, warnings)


def _check_nets(design: Design, report: ValidationReport) -> None:
    report.checks_run.extend(
        ["undriven_net", "multi_driver_net", "degenerate_net"]
    )
    undriven: List[str] = []
    multi: List[str] = []
    degenerate: List[str] = []
    for ni in range(design.n_nets):
        pins = design.net_pins(ni)
        drivers = pins[design.pin_dir[pins] == 1]
        if design.net_degree(ni) < 2:
            degenerate.append(
                f"net {design.net_name[ni]!r} has {design.net_degree(ni)} pins"
            )
        if len(drivers) == 0 and design.net_degree(ni) >= 1:
            if not design.net_is_clock[ni]:
                undriven.append(
                    f"net {design.net_name[ni]!r} has "
                    f"{design.net_degree(ni)} sinks but no driver"
                )
        elif len(drivers) > 1:
            names = ", ".join(design.pin_name[p] for p in drivers[:4].tolist())
            multi.append(
                f"net {design.net_name[ni]!r} has {len(drivers)} drivers "
                f"({names})"
            )
    _capped(report, "undriven_net", ERROR, undriven)
    _capped(report, "multi_driver_net", ERROR, multi)
    _capped(report, "degenerate_net", WARNING, degenerate)


def _check_cells(design: Design, report: ValidationReport) -> None:
    report.checks_run.append("zero_area_cell")
    area = design.cell_w * design.cell_h
    bad = np.nonzero(~design.cell_is_port & (area <= 0.0))[0]
    _capped(
        report, "zero_area_cell", ERROR,
        [
            f"cell {design.cell_name[c]!r} "
            f"({design.cell_type_of(c).name}) has area "
            f"{area[c]:.3g}"
            for c in bad.tolist()
        ],
    )


def _check_lut(lut: Optional[LUT], where: str, problems: Dict[str, List[str]]) -> None:
    if lut is None:
        problems[ERROR].append(f"{where}: missing LUT")
        return
    if lut.values.size == 0 or len(lut.x) == 0 or len(lut.y) == 0:
        problems[ERROR].append(f"{where}: empty LUT {lut.name!r}")
        return
    if not np.all(np.isfinite(lut.values)):
        problems[ERROR].append(
            f"{where}: LUT {lut.name!r} has non-finite values"
        )
    if not np.all(np.isfinite(lut.x)) or not np.all(np.isfinite(lut.y)):
        problems[ERROR].append(
            f"{where}: LUT {lut.name!r} has non-finite index corners"
        )
    if (len(lut.x) > 1 and np.any(np.diff(lut.x) <= 0)) or (
        len(lut.y) > 1 and np.any(np.diff(lut.y) <= 0)
    ):
        problems[ERROR].append(
            f"{where}: LUT {lut.name!r} axes are not strictly increasing"
        )
    if len(lut.x) < 2 and len(lut.y) < 2:
        problems[WARNING].append(
            f"{where}: LUT {lut.name!r} is a single corner "
            f"(constant extrapolation everywhere)"
        )


def _check_library(design: Design, report: ValidationReport) -> None:
    report.checks_run.append("nldm_lut")
    problems: Dict[str, List[str]] = {ERROR: [], WARNING: []}
    used_types = set(np.unique(design.cell_type).tolist())
    for ti in sorted(used_types):
        ctype = design.cell_types[ti]
        for arc in ctype.arcs:
            where = f"{ctype.name}.{arc.from_pin}->{arc.to_pin}"
            if arc.kind.is_delay_arc:
                for t in (RISE, FALL):
                    _check_lut(arc.delay_lut(t), f"{where} delay", problems)
                    _check_lut(
                        arc.transition_lut(t), f"{where} slew", problems
                    )
            elif arc.kind in (ArcKind.SETUP, ArcKind.HOLD):
                for t in (RISE, FALL):
                    _check_lut(
                        arc.constraint_lut(t),
                        f"{where} {arc.kind.name.lower()}",
                        problems,
                    )
    _capped(report, "nldm_lut", ERROR, problems[ERROR])
    _capped(report, "nldm_lut", WARNING, problems[WARNING])


def _check_geometry(design: Design, report: ValidationReport) -> None:
    report.checks_run.append("pin_outside_die")
    xl, yl, xh, yh = design.die
    px, py = design.pin_positions()
    tol = 1e-6 * max(xh - xl, yh - yl, 1.0)
    outside = (
        (px < xl - tol) | (px > xh + tol) | (py < yl - tol) | (py > yh + tol)
    )
    errors: List[str] = []
    warnings: List[str] = []
    for p in np.nonzero(outside)[0].tolist():
        ci = int(design.pin2cell[p])
        message = (
            f"pin {design.pin_name[p]!r} at ({px[p]:.2f}, {py[p]:.2f}) "
            f"is outside the die {design.die}"
        )
        if design.cell_fixed[ci]:
            errors.append(message + " (fixed cell)")
        else:
            warnings.append(message + " (movable; will be re-initialised)")
    _capped(report, "pin_outside_die", ERROR, errors)
    _capped(report, "pin_outside_die", WARNING, warnings)


def _check_cycles(
    design: Design, report: ValidationReport, graph: Optional[TimingGraph]
) -> None:
    report.checks_run.append("combinational_cycle")
    if graph is not None:
        return  # the graph levelised successfully: acyclic by construction
    try:
        TimingGraph(design)
    except CombinationalCycleError as exc:
        report.add("combinational_cycle", ERROR, str(exc))
    except Exception as exc:  # malformed designs may fail earlier stages
        report.add(
            "combinational_cycle", ERROR,
            f"timing graph construction failed: {type(exc).__name__}: {exc}",
        )


# ----------------------------------------------------------------------
def validate_design(
    design: Design,
    graph: Optional[TimingGraph] = None,
    check_graph: bool = True,
) -> ValidationReport:
    """Run every structural check; never raises on a bad design.

    ``graph`` may pass an already-constructed :class:`TimingGraph` to
    prove acyclicity without a second levelisation; with ``check_graph``
    False the (comparatively expensive) cycle check is skipped entirely.
    """
    report = ValidationReport(design=design.name)
    _check_pins(design, report)
    _check_nets(design, report)
    _check_cells(design, report)
    _check_library(design, report)
    _check_geometry(design, report)
    if check_graph:
        _check_cycles(design, report, graph)
    return report
