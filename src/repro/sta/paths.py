"""Critical-path extraction and ``report_timing``-style output.

Paths are traced backward from timing endpoints by resolving, at each pin,
which fan-in arc produced the merged (max) arrival time - read from the
per-contribution candidates the forward sweep records, so no tags are kept
and nothing is looked up again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..netlist.library import FALL, RISE
from .analysis import STAResult

__all__ = ["PathPoint", "TimingPath", "extract_path", "worst_paths", "format_path"]

_TRANSITION_NAME = {RISE: "r", FALL: "f"}


@dataclass
class PathPoint:
    """One pin on a timing path."""

    pin: int
    pin_name: str
    transition: int
    at: float
    slew: float
    incr: float
    arc_kind: str  # "start" | "net" | "cell"


@dataclass
class TimingPath:
    """A launch-to-endpoint timing path with its endpoint slack."""

    points: List[PathPoint]
    endpoint: int
    slack: float

    @property
    def delay(self) -> float:
        return self.points[-1].at - self.points[0].at

    @property
    def length(self) -> int:
        return len(self.points)


def _fanin_resolve(result: STAResult, pin: int, transition: int):
    """Return (src_pin, src_transition, incr, kind) of the winning fan-in.

    Read off what the late sweep recorded: the slot's merge candidates
    (their argmax is the arc that set the arrival time) and arc delays.
    """
    graph = result.graph
    plan = graph.plan
    arc = plan.net_arc_of[pin]
    if arc >= 0:  # a pin has at most one net arc
        return int(graph.net_src[arc]), transition, float(result.net_delay[pin]), "net"
    idx = plan.fanin(np.array([pin]))
    idx = idx[graph.c_tout[idx] == transition]
    if not len(idx):
        return None
    best = idx[np.argmax(result.tape.cand[0, idx])]
    return (
        int(graph.c_src[best]), int(graph.c_tin[best]),
        float(result.tape.delay[best]), "cell",
    )


def extract_path(
    result: STAResult, endpoint_pin: int, transition: Optional[int] = None
) -> TimingPath:
    """Trace the most critical path ending at ``endpoint_pin``."""
    design = result.graph.design
    if transition is None:
        transition = int(np.argmin(result.slack[endpoint_pin]))
    slack = float(result.slack[endpoint_pin, transition])

    rev: List[PathPoint] = []
    pin, t = endpoint_pin, transition
    guard = 0
    while True:
        guard += 1
        if guard > design.n_pins + 1:
            raise RuntimeError("path tracing did not terminate")
        resolved = _fanin_resolve(result, pin, t)
        incr = 0.0 if resolved is None else resolved[2]
        kind = "start" if resolved is None else resolved[3]
        rev.append(
            PathPoint(
                pin=pin,
                pin_name=design.pin_name[pin],
                transition=t,
                at=float(result.at[pin, t]),
                slew=float(result.slew[pin, t]),
                incr=incr,
                arc_kind=kind,
            )
        )
        if resolved is None:
            break
        pin, t = resolved[0], resolved[1]
    return TimingPath(points=list(reversed(rev)), endpoint=endpoint_pin, slack=slack)


def worst_paths(result: STAResult, k: int = 5) -> List[TimingPath]:
    """The ``k`` most critical endpoint paths, sorted by slack ascending."""
    ep = result.graph.endpoint_pins
    order = np.argsort(result.endpoint_slack)
    paths = []
    for i in order[:k]:
        paths.append(extract_path(result, int(ep[i])))
    return paths


def format_path(path: TimingPath) -> str:
    """Render one path in a ``report_timing`` style block."""
    lines = [
        f"Path to {path.points[-1].pin_name} "
        f"(slack = {path.slack:.2f} ps, {path.length} points)",
        f"{'pin':<28} {'edge':>4} {'incr':>9} {'at':>10} {'slew':>8}  kind",
    ]
    for p in path.points:
        lines.append(
            f"{p.pin_name:<28} {_TRANSITION_NAME[p.transition]:>4} "
            f"{p.incr:>9.2f} {p.at:>10.2f} {p.slew:>8.2f}  {p.arc_kind}"
        )
    return "\n".join(lines)
