"""Golden static timing analysis: graph, Elmore, NLDM, analysis, paths."""

from .nldm import LutBank
from .graph import CombinationalCycleError, LevelizedArcs, TimingGraph, levelize
from .elmore import ElmoreResult, elmore_forward, node_caps
from .analysis import STAResult, StaticTimingAnalyzer, run_sta
from .paths import TimingPath, extract_path, format_path, worst_paths
from .clock import ClockArrival, propagate_clock

__all__ = [
    "LutBank",
    "CombinationalCycleError",
    "LevelizedArcs",
    "TimingGraph",
    "levelize",
    "ElmoreResult",
    "elmore_forward",
    "node_caps",
    "STAResult",
    "StaticTimingAnalyzer",
    "run_sta",
    "TimingPath",
    "extract_path",
    "format_path",
    "worst_paths",
    "ClockArrival",
    "propagate_clock",
]
