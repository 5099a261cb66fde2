"""Table 3 reproduction: WNS/TNS/HPWL/runtime across placers and designs.

Runs the three placers (original DREAMPlace [16], momentum net weighting
[24], and our differentiable-timing placer) on the miniblue suite and
formats the results in the paper's layout, including the average-ratio row
(each metric normalised to "Ours", geometric-mean style arithmetic mean of
per-design ratios as the paper uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .runners import MODES, RunRecord
from .suite import SUITE
from .supervisor import SupervisorError, SuiteTask, run_tasks

__all__ = ["Table3Result", "run_table3", "format_table3", "average_ratios"]


@dataclass
class Table3Result:
    """All runs of the comparison, keyed by (design, mode)."""

    records: Dict[str, Dict[str, RunRecord]] = field(default_factory=dict)

    def add(self, record: RunRecord) -> None:
        self.records.setdefault(record.design, {})[record.mode] = record

    @property
    def designs(self) -> List[str]:
        return list(self.records)

    def metric(self, design: str, mode: str, key: str) -> float:
        return getattr(self.records[design][mode], key)


def run_table3(
    designs: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    max_iters: int = 600,
    verbose: bool = True,
    profile: bool = False,
    validate: bool = False,
    checkpoint_every: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> Table3Result:
    """Run the full (designs x modes) comparison matrix.

    ``profile=True`` attaches each (design, mode) run's per-layer span
    stats to its record (see :func:`run_mode`).
    ``validate`` runs structural design validation before each placement;
    ``checkpoint_every`` saves resumable placer checkpoints on that period
    (see :mod:`repro.runtime`).  The matrix runs through
    :func:`repro.harness.supervisor.run_tasks`: ``jobs > 1`` fans it out
    to that many worker processes, with final metrics identical to
    ``jobs=1``.  ``use_cache`` serves designs through the bundle cache
    (bit-identical, loads once per process); ``cache_dir`` overrides its
    location.  A quarantined cell raises :class:`SupervisorError` naming
    its run id - the table never holds a NaN row.
    """
    names = list(designs) if designs is not None else [e.name for e in SUITE]
    tasks = [
        SuiteTask(
            design=name,
            mode=mode,
            max_iters=max_iters,
            checkpoint_every=checkpoint_every,
            profile=profile,
            extra_placer_options={"validate": validate},
        )
        for name in names
        for mode in modes
    ]
    records, _ = run_tasks(
        tasks, jobs, use_cache=use_cache, cache_dir=cache_dir, verbose=verbose
    )
    result = Table3Result()
    for task, record in zip(tasks, records):
        if record.quarantined:
            failure = record.quarantine["failures"][-1]
            raise SupervisorError(
                f"Table 3 cell {task.run_id} quarantined: {failure['error']}",
                failure=failure["failure"],
                run_id=task.run_id,
                attempts=record.attempts,
            )
        result.add(record)
    return result


def average_ratios(
    result: Table3Result, reference_mode: str = "ours"
) -> Dict[str, Dict[str, float]]:
    """Per-mode average of metric ratios vs the reference mode.

    WNS/TNS ratios use absolute values (a ratio > 1 means worse timing
    than the reference); runtime and HPWL are plain ratios.  Matches the
    "Avg. Ratio" row of Table 3.
    """
    out: Dict[str, Dict[str, float]] = {}
    designs = result.designs
    for mode in next(iter(result.records.values())).keys():
        ratios: Dict[str, List[float]] = {
            "wns": [],
            "tns": [],
            "hpwl": [],
            "runtime": [],
        }
        for design in designs:
            ref = result.records[design][reference_mode]
            rec = result.records[design][mode]
            for key in ratios:
                ref_val = getattr(ref, key)
                val = getattr(rec, key)
                if key in ("wns", "tns"):
                    ref_val, val = abs(ref_val), abs(val)
                if abs(ref_val) < 1e-12:
                    continue
                ratios[key].append(val / ref_val)
        out[mode] = {k: float(np.mean(v)) if v else float("nan") for k, v in ratios.items()}
    return out


def format_table3(result: Table3Result, reference_mode: str = "ours") -> str:
    """Render the comparison in the paper's Table 3 layout."""
    modes = list(next(iter(result.records.values())).keys())
    mode_title = {
        "dreamplace": "DREAMPlace [16]",
        "netweight": "Net Weighting [24]",
        "ours": "Ours",
    }
    col = f"{'WNS':>9} {'TNS':>11} {'HPWL':>9} {'Time':>7}"
    header1 = f"{'Benchmark':<12}" + "".join(
        f" | {mode_title.get(m, m):^40}" for m in modes
    )
    header2 = f"{'':<12}" + "".join(f" | {col}" for m in modes)
    lines = [header1, header2, "-" * len(header2)]
    for design in result.designs:
        row = f"{design:<12}"
        for mode in modes:
            rec = result.records[design][mode]
            row += (
                f" | {rec.wns:>9.1f} {rec.tns:>11.1f} "
                f"{rec.hpwl:>9.1f} {rec.runtime:>7.2f}"
            )
        lines.append(row)
    ratios = average_ratios(result, reference_mode)
    row = f"{'Avg. Ratio':<12}"
    for mode in modes:
        r = ratios[mode]
        row += (
            f" | {r['wns']:>9.3f} {r['tns']:>11.3f} "
            f"{r['hpwl']:>9.3f} {r['runtime']:>7.3f}"
        )
    lines.append(row)
    lines.append(
        "WNS/TNS in ps (golden STA, setup); HPWL in um; Time in s; "
        f"ratios are averages vs mode '{reference_mode}'."
    )
    return "\n".join(lines)
