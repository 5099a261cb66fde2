"""Outside-in span recorder for the traced benchmark round.

The program under test is not edited: :func:`install` replaces the
layers' public entry points with thin wrappers that open and close a
span around the original call.  Spans live in memory (integer
nanoseconds, so self-times add up exactly) and are written out once, as
a Chrome ``trace_event`` file, when the round ends.  Timed rounds never
install anything.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Recorder",
    "TARGETS",
    "install",
    "layer_stats",
    "count_children",
    "write_chrome_trace",
]

# Span fields, by index.
NAME, START, END, PARENT, FLOW = range(5)

#: (module, attribute path, span name).  A dotted attribute path is a
#: method patched on its class; a bare name is a module global patched
#: in the namespace of the module that *calls* it (the import site).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netlist.cache", "generate_design", "netlist.generate"),
    ("repro.sta.graph", "TimingGraph.__init__", "sta.graph.build"),
    ("repro.place.placer", "GlobalPlacer.__init__", "place.placer.init"),
    ("repro.place.placer", "GlobalPlacer.run", "place.placer.run"),
    ("repro.place.wirelength", "WAWirelength.evaluate", "place.wirelength.evaluate"),
    ("repro.place.density", "DensityModel.evaluate", "place.density.evaluate"),
    ("repro.place.optimizer", "NesterovOptimizer.step", "place.optimizer.step"),
    ("repro.runtime.guard", "NumericalGuard.check_term", "runtime.guard"),
    ("repro.runtime.guard", "NumericalGuard.scrub", "runtime.guard"),
    ("repro.core.timing_placer", "TimingDrivenPlacer.__init__", "core.timing_placer.init"),
    ("repro.core.objective", "TimingObjective.__call__", "core.objective.call"),
    ("repro.core.difftimer", "DifferentiableTimer.forward", "core.difftimer.forward"),
    ("repro.core.difftimer", "DifferentiableTimer.backward", "core.difftimer.backward"),
    ("repro.place.netweight", "MomentumNetWeighter.__call__", "place.netweight.update"),
    ("repro.sta.analysis", "StaticTimingAnalyzer.run", "sta.analysis.run"),
    ("repro.core.objective", "build_forest_from_pins", "route.build_forest"),
    ("repro.sta.analysis", "build_forest", "route.build_forest"),
    ("repro.harness.runners", "run_sta", "harness.final_sta"),
)


class Recorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent id, flow id]``.

    A span's id is its index in :attr:`spans`; the parent is whichever
    span was open when it began (-1 at top level).  Every span opened
    while a flow is active carries that flow's id.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.spans: List[list] = []
        self._clock = clock
        self._stack: List[int] = []
        self._flow = -1
        self._n_flows = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, 0, 0, parent, self._flow])
        self._stack.append(sid)
        # Stamp last so the recorder's own bookkeeping lands in the
        # parent's self time, not in this span.
        self.spans[sid][START] = self._clock()
        return sid

    def end(self, sid: int) -> None:
        now = self._clock()
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        self.spans[sid][END] = now

    def begin_flow(self, name: str) -> int:
        """Open the root span of a new flow (one per ``run_mode`` call)."""
        self._flow = self._n_flows
        self._n_flows += 1
        return self.begin(name)

    def end_flow(self, sid: int) -> None:
        self.end(sid)
        self._flow = -1


def _wrap(rec: Recorder, name: str, orig: Callable) -> Callable:
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        sid = rec.begin(name)
        try:
            return orig(*args, **kwargs)
        finally:
            rec.end(sid)

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every entry point in :data:`TARGETS`; returns the undo."""
    undo: List[Tuple[object, str, Callable]] = []
    for module_name, path, name in TARGETS:
        owner = importlib.import_module(module_name)
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        orig = getattr(owner, attr)
        setattr(owner, attr, _wrap(rec, name, orig))
        undo.append((owner, attr, orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def layer_stats(
    spans: List[list], flow: Optional[int] = None
) -> Dict[str, Dict[str, int]]:
    """Per-name ``calls``, ``total_ns`` and ``self_ns`` of one flow.

    ``self`` is a span's duration minus what its direct children cover
    (one thread, so children never overlap).  ``total`` counts a span
    only when no ancestor has the same name, so a layer that re-enters
    itself is not counted twice.  ``flow=None`` takes every span.
    """
    picked = [
        i for i, s in enumerate(spans) if flow is None or s[FLOW] == flow
    ]
    child_ns = {i: 0 for i in picked}
    for i in picked:
        parent = spans[i][PARENT]
        if parent in child_ns:
            child_ns[parent] += spans[i][END] - spans[i][START]
    stats: Dict[str, Dict[str, int]] = {}
    for i in picked:
        name, start, end, parent, _ = spans[i]
        row = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += (end - start) - child_ns[i]
        while parent in child_ns and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent not in child_ns:
            row["total_ns"] += end - start
    return stats


def count_children(spans: List[list], flow: int, name: str, parent_name: str) -> int:
    """Spans called ``name`` in ``flow`` whose direct parent is ``parent_name``."""
    return sum(
        1
        for s in spans
        if s[FLOW] == flow
        and s[NAME] == name
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == parent_name
    )


def write_chrome_trace(path: str, spans: List[list]) -> None:
    """Dump spans as complete (``ph: X``) events on their real timeline.

    One ``tid`` per flow (set-up spans, flow -1, go to tid 0); open the
    file in ``chrome://tracing`` or Perfetto.
    """
    if not spans:
        events: List[dict] = []
    else:
        t0 = min(s[START] for s in spans)
        events = [
            {
                "name": s[NAME],
                "ph": "X",
                "ts": (s[START] - t0) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": 1,
                "tid": s[FLOW] + 1,
                "args": {"id": i, "parent": s[PARENT]},
            }
            for i, s in enumerate(spans)
        ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
