"""Experiment harness: benchmark suite, runners, tables, curves.

Every suite task runs once through
:func:`repro.harness.supervisor.run_tasks`: in-process or on spawn
workers, with worker-crash isolation and a per-task timeout; a task that
fails is quarantined under its run id.
"""

from .suite import SUITE, SuiteEntry, format_table2, load_design, suite_statistics
from .runners import MODES, RunRecord, run_mode
from .table3 import Table3Result, average_ratios, format_table3, run_table3
from .curves import CurveData, format_fig8, run_fig8, to_csv
from .plots import curves_svg, placement_svg, save_svg
from .supervisor import (
    SupervisorError,
    SuiteTask,
    run_tasks,
    suite_metrics,
    write_suite_manifest,
)

__all__ = [
    "run_tasks",
    "suite_metrics",
    "write_suite_manifest",
    "SupervisorError",
    "SuiteTask",
    "SUITE",
    "SuiteEntry",
    "format_table2",
    "load_design",
    "suite_statistics",
    "MODES",
    "RunRecord",
    "run_mode",
    "Table3Result",
    "average_ratios",
    "format_table3",
    "run_table3",
    "CurveData",
    "format_fig8",
    "run_fig8",
    "to_csv",
    "curves_svg",
    "placement_svg",
    "save_svg",
]
