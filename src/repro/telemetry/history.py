"""Append-only perf-regression ledger under ``benchmarks/history/``.

Each benchmark (``bench_placer.py``, ``bench_rsmt.py``) appends one
record per invocation to ``benchmarks/history/<bench>.jsonl``:

::

    {"bench": "rsmt_forest", "git_rev": "<sha>", "tree_dirty": false,
     "ts": "<iso8601>", "metrics": {"speedup": 3.28, ...},
     "gates": {"speedup": "higher"}}

``tree_dirty`` says whether the work tree differed from ``git_rev`` when
the record was taken: a perf PR measures its own tree before committing
it, so its record carries the *parent's* revision and ``true``.

``gates`` names the metrics that matter for regression detection and
their good direction: ``"higher"`` (a speedup - dropping is a
regression) or ``"lower"`` (a runtime - growing is a regression).

``python -m repro trend`` renders the trajectory per bench and
gates the *latest* record against the median of up to
:data:`BASELINE_WINDOW` prior records: the median absorbs isolated noisy
runs, while a real regression shifts the latest point past the ``rtol``
tolerance and exits non-zero.  The ledger is keyed by git revision so a
drift report names the commit range that introduced it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from .manifest import git_revision, git_tree_dirty

__all__ = [
    "HISTORY_DIR",
    "BASELINE_WINDOW",
    "append_record",
    "load_history",
    "list_benches",
    "check_trend",
    "render_trend",
]

#: Default ledger location, relative to the repository root / cwd.
HISTORY_DIR = os.path.join("benchmarks", "history")

#: Prior records the drift gate medians over (excluding the latest).
BASELINE_WINDOW = 5


def _bench_path(history_dir: str, bench: str) -> str:
    return os.path.join(history_dir, f"{bench}.jsonl")


def append_record(
    bench: str,
    metrics: Dict[str, Any],
    gates: Optional[Dict[str, str]] = None,
    history_dir: str = HISTORY_DIR,
    git_rev: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one benchmark outcome to the ledger; returns the record.

    ``gates`` maps metric name to good direction (``"higher"`` /
    ``"lower"``); ungated metrics are recorded for the trajectory but
    never fail the trend check.
    """
    for metric, direction in (gates or {}).items():
        if direction not in ("higher", "lower"):
            raise ValueError(
                f"gate for {metric!r} must be 'higher' or 'lower', "
                f"got {direction!r}"
            )
    record = {
        "bench": bench,
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "tree_dirty": git_tree_dirty(),
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "metrics": dict(metrics),
        "gates": dict(gates or {}),
    }
    os.makedirs(history_dir, exist_ok=True)
    with open(_bench_path(history_dir, bench), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def load_history(
    bench: str, history_dir: str = HISTORY_DIR
) -> List[Dict[str, Any]]:
    """All ledger records of one bench, oldest first ([] when absent)."""
    path = _bench_path(history_dir, bench)
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return []
    records = []
    for line in lines:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def list_benches(history_dir: str = HISTORY_DIR) -> List[str]:
    """Bench names with a ledger file, sorted."""
    try:
        names = os.listdir(history_dir)
    except FileNotFoundError:
        return []
    return sorted(
        name[: -len(".jsonl")] for name in names if name.endswith(".jsonl")
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_trend(
    records: Sequence[Dict[str, Any]], rtol: float = 0.1
) -> List[Dict[str, Any]]:
    """Drift findings for the latest record vs its recent baseline.

    For every gated metric present in the latest record, the baseline is
    the median of that metric over up to :data:`BASELINE_WINDOW`
    immediately-prior records.  ``"higher"``-gated metrics drift when
    the latest falls below ``baseline * (1 - rtol)``;
    ``"lower"``-gated ones when it rises above ``baseline * (1 + rtol)``.
    Fewer than 2 records -> nothing to compare, no findings.
    """
    if len(records) < 2:
        return []
    latest = records[-1]
    prior = records[-1 - BASELINE_WINDOW: -1]
    findings = []
    for metric, direction in (latest.get("gates") or {}).items():
        value = latest.get("metrics", {}).get(metric)
        baseline_values = [
            r["metrics"][metric]
            for r in prior
            if metric in r.get("metrics", {})
        ]
        if value is None or not baseline_values:
            continue
        baseline = _median([float(v) for v in baseline_values])
        value = float(value)
        if direction == "higher":
            drifted = value < baseline * (1.0 - rtol)
        else:
            drifted = value > baseline * (1.0 + rtol)
        if drifted:
            findings.append(
                {
                    "bench": latest.get("bench"),
                    "metric": metric,
                    "direction": direction,
                    "value": value,
                    "baseline": baseline,
                    "rtol": rtol,
                    "git_rev": latest.get("git_rev"),
                    "baseline_revs": [r.get("git_rev") for r in prior],
                }
            )
    return findings


def render_trend(
    records: Sequence[Dict[str, Any]], rtol: float = 0.1
) -> str:
    """Human trajectory of one bench's ledger, drift-annotated."""
    if not records:
        return "(no history)"
    bench = records[-1].get("bench", "?")
    gated = sorted(records[-1].get("gates") or {})
    metrics = gated or sorted(records[-1].get("metrics") or {})
    header = f"{'rev':<12} {'ts':<20}" + "".join(
        f" {m:>14}" for m in metrics
    )
    lines = [f"# trend: {bench}", header]
    for record in records:
        rev = str(record.get("git_rev", "?"))[:10]
        row = f"{rev:<12} {str(record.get('ts', '')):<20}"
        for metric in metrics:
            value = record.get("metrics", {}).get(metric)
            row += (
                f" {value:>14.4f}"
                if isinstance(value, (int, float))
                else f" {'-':>14}"
            )
        lines.append(row)
    findings = check_trend(records, rtol=rtol)
    for f in findings:
        sign = "below" if f["direction"] == "higher" else "above"
        lines.append(
            f"DRIFT {f['metric']}: {f['value']:.4f} is {sign} the "
            f"baseline median {f['baseline']:.4f} beyond rtol={f['rtol']} "
            f"(latest rev {str(f['git_rev'])[:10]})"
        )
    if not findings:
        lines.append(f"ok: latest within rtol={rtol} of baseline median")
    return "\n".join(lines)
