"""The span recorder: where the wall clock of a run goes, layer by layer.

The program is not edited to be measured: :func:`install` wraps the
layers' entry points (:data:`TARGETS`) in thin span-opening wrappers and
returns the undo, so nothing is paid while no recorder is installed.
Spans are ``[name, start_ns, end_ns, parent id, flow id]`` in integer
nanoseconds, so the self times of one flow (one ``run_mode`` call, root
span :data:`FLOW_SPAN`) add up exactly to its wall clock.
:data:`PROFILER` is the recorder the harness installs for profiled,
traced and telemetry runs; its ``enabled`` is true only while installed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FLOW_SPAN", "PROFILER", "Recorder", "TARGETS", "count_children",
    "flow_stats", "format_stats", "install", "join_flows", "layer_stats",
    "write_chrome_trace",
]

NAME, START, END, PARENT, FLOW = range(5)  # span fields, by index

#: Root span of one flow: the whole of one ``run_mode`` call.
FLOW_SPAN = "harness.run_mode"

#: (module, attribute path, span name).  A dotted attribute path is a
#: method patched on its class; a bare name is a module global patched
#: in the namespace of the module that *calls* it (the import site).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netlist.cache", "generate_design", "netlist.generate"),
    ("repro.sta.graph", "TimingGraph.__init__", "sta.graph.build"),
    ("repro.place.placer", "GlobalPlacer.__init__", "place.placer.init"),
    ("repro.place.placer", "GlobalPlacer.run", "place.placer.run"),
    ("repro.place.wirelength", "WAWirelength.evaluate", "place.wirelength.evaluate"),
    ("repro.place.wirelength", "WAWirelength.hpwl", "place.wirelength.hpwl"),
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
    # Inside the layers above.
    ("repro.core.difftimer", "build_forest", "route.build_forest"),
    ("repro.core.difftimer", "design_elmore", "core.difftimer.elmore"),
    ("repro.core.difftimer", "propagate", "core.difftimer.levels"),
    ("repro.core.difftimer", "endpoint_slacks", "core.difftimer.endpoints"),
    ("repro.core.propagate", "sweep_forward", "core.sweep.forward"),
    ("repro.core.difftimer", "timer_adjoint", "core.sweep.adjoint"),
    ("repro.sta.analysis", "sweep_required", "core.sweep.required"),
    ("repro.place.density", "DensityModel._splat", "place.density.splat"),
    ("repro.place.density", "DensityModel._solve_poisson", "place.density.solve"),
    ("repro.place.density", "DensityModel._field", "place.density.field"),
    ("repro.place.density", "DensityModel._gather", "place.density.gather"),
    ("repro.runtime.checkpoint", "save_checkpoint", "runtime.checkpoint.save"),
    ("repro.runtime.checkpoint", "load_checkpoint", "runtime.checkpoint.load"),
    ("repro.place.placer", "load_checkpoint", "runtime.checkpoint.load"),
    ("repro.place.placer", "validate_design", "runtime.validate"),
)


class Recorder:
    """In-memory spans.  A span's id is its index in :attr:`spans`, its
    parent whichever span was open when it began (-1 at top level), its
    flow the flow active then (-1 outside one)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        #: True while :func:`install` has the entry points wrapped.
        self.enabled = False
        self._clock = clock
        self.reset()

    def reset(self) -> None:
        """Drop every span; ``enabled`` is left as it is."""
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._flow = -1
        self._n_flows = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, 0, 0, parent, self._flow])
        self._stack.append(sid)
        # Stamped last: the recorder's bookkeeping is the parent's self time.
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
        *holders, attr = path.split(".")
        owner = functools.reduce(getattr, holders, importlib.import_module(module_name))
        orig = getattr(owner, attr)
        setattr(owner, attr, _wrap(rec, name, orig))
        undo.append((owner, attr, orig))
    rec.enabled = True

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        rec.enabled = False

    return uninstall


def layer_stats(spans: List[list], flow: Optional[int] = None) -> Dict[str, Dict[str, int]]:
    """Per-name ``calls``, ``total_ns`` and ``self_ns`` of one flow.

    ``self`` is a span's duration minus what its direct children cover
    (one thread, so children never overlap).  ``total`` counts a span
    only when no ancestor has the same name, so a layer that re-enters
    itself is not counted twice.  ``flow=None`` takes every span.
    """
    picked = [i for i, s in enumerate(spans) if flow is None or s[FLOW] == flow]
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


def flow_stats(spans: List[list], flow: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """:func:`layer_stats` in seconds: ``{name: {calls, total_s, self_s}}``."""
    return {
        name: {"calls": r["calls"], "total_s": r["total_ns"] / 1e9, "self_s": r["self_ns"] / 1e9}
        for name, r in layer_stats(spans, flow).items()
    }


def count_children(spans: List[list], flow: int, name: str, parent_name: str) -> int:
    """Spans called ``name`` in ``flow`` whose direct parent is ``parent_name``."""
    return sum(
        1 for s in spans
        if s[FLOW] == flow and s[NAME] == name
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name
    )


def join_flows(flows: Sequence[Tuple[List[list], int]]) -> List[list]:
    """The spans of each ``(spans, flow)`` pair, renumbered, pair k as flow k."""
    out: List[list] = []
    for k, (spans, flow) in enumerate(flows):
        ids = [i for i, s in enumerate(spans) if s[FLOW] == flow]
        new_id = {old: len(out) + j for j, old in enumerate(ids)}
        out += [[spans[i][NAME], spans[i][START], spans[i][END],
                 new_id.get(spans[i][PARENT], -1), k] for i in ids]
    return out


def format_stats(stats: Dict[str, Dict[str, float]], title: str = "spans") -> str:
    """Per-layer ``calls / total / self / share of wall`` as a text table;
    the wall is the :data:`FLOW_SPAN` total, else the sum of self times."""
    self_sum = sum(row["self_s"] for row in stats.values())
    wall = stats[FLOW_SPAN]["total_s"] if FLOW_SPAN in stats else self_sum
    lines = [f"# {title}",
             f"{'span':<36} {'calls':>8} {'total(s)':>11} {'self(s)':>11} {'share':>7}"]
    for name in sorted(stats, key=lambda n: -stats[n]["self_s"]):
        row = stats[name]
        lines.append(
            f"{name:<36} {row['calls']:>8d} {row['total_s']:>11.6f} "
            f"{row['self_s']:>11.6f} {row['self_s'] / wall if wall else 0.0:>7.1%}"
        )
    if not stats:
        lines.append("(no spans recorded)")
    lines.append(f"{'wall / sum of self':<36} {'':>8} {wall:>11.6f} {self_sum:>11.6f}")
    return "\n".join(lines)


def write_chrome_trace(path: str, spans: List[list], names: Sequence[str] = ()) -> None:
    """Dump spans as complete (``ph: X``) events on their real timeline: one
    ``tid`` per flow (flow -1, set-up, on tid 0), ``names[k]`` labelling flow
    k's track.  Open the file in ``chrome://tracing`` or Perfetto."""
    t0 = min((s[START] for s in spans), default=0)
    events: List[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": k + 1, "args": {"name": name}}
        for k, name in enumerate(names)
    ]
    events += [
        {"name": s[NAME], "ph": "X", "ts": (s[START] - t0) / 1e3, "dur": (s[END] - s[START]) / 1e3,
         "pid": 1, "tid": s[FLOW] + 1, "args": {"id": i, "parent": s[PARENT]}}
        for i, s in enumerate(spans)
    ]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


#: The recorder the harness installs; ``enabled`` only while installed.
PROFILER = Recorder()
