"""Render one telemetry run into a human-readable report.

``python -m repro report <run_dir>`` loads the run's manifest
and event stream and produces:

- ``report.md`` - a markdown summary (manifest, final metrics, event
  breakdown, guard/recovery activity, per-layer span table with
  self-time and share of wall), also printed to stdout;
- ``curve_<metric>.svg`` - one dependency-free convergence plot per
  recorded iteration series (hpwl, overflow, wns, tns, ...), via
  :mod:`repro.harness.plots`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from ..perf import format_stats
from .events import iteration_series, read_events
from .manifest import RunManifest, load_manifest

__all__ = ["render_report", "PLOTTED_METRICS"]

#: Iteration series rendered as SVG curves when present in the stream.
PLOTTED_METRICS = (
    "hpwl",
    "overflow",
    "wns",
    "tns",
    "tns_smoothed",
    "wns_smoothed",
    "lse_saturation",
)

_MANIFEST_ROWS = (
    ("run id", "run_id"),
    ("design", "design"),
    ("mode", "mode"),
    ("seed", "seed"),
    ("created", "created"),
    ("git rev", "git_rev"),
    ("python", "python_version"),
    ("numpy", "numpy_version"),
    ("platform", "platform"),
    ("wall clock (s)", "wall_clock_s"),
)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _event_summary(events: List[Dict[str, Any]]) -> List[str]:
    counts: Dict[str, int] = {}
    for record in events:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    lines = ["| kind | events |", "|---|---|"]
    for kind in sorted(counts):
        lines.append(f"| {kind} | {counts[kind]} |")
    return lines


def _incident_lines(events: List[Dict[str, Any]]) -> List[str]:
    """Guard quarantines, exceptions, recoveries and checkpoints."""
    out: List[str] = []
    for record in events:
        kind = record.get("kind")
        it = record.get("iteration")
        if kind == "quarantine":
            out.append(
                f"- iteration {it}: quarantined `{record.get('term')}` "
                f"({record.get('bad_entries')} non-finite entries)"
            )
        elif kind == "term_exception":
            out.append(
                f"- iteration {it}: `{record.get('term')}` raised "
                f"{record.get('error')}"
            )
        elif kind == "recovery":
            target = record.get("target_iteration")
            suffix = f" -> iteration {target}" if target is not None else ""
            out.append(
                f"- iteration {it}: recovery `{record.get('action')}`{suffix}"
            )
        elif kind == "checkpoint":
            out.append(
                f"- iteration {it}: checkpoint {record.get('action')} "
                f"`{os.path.basename(str(record.get('path', '')))}`"
            )
    return out


def render_report(
    run_dir: str,
    out_dir: Optional[str] = None,
    write: bool = True,
) -> str:
    """Build the markdown report for ``run_dir``; returns the markdown.

    With ``write=True`` (default) the markdown plus one SVG per
    available convergence series are written into ``out_dir`` (default:
    the run directory itself).
    """
    manifest: RunManifest = load_manifest(run_dir)
    events_path = os.path.join(run_dir, manifest.events_file)
    events = read_events(events_path) if os.path.exists(events_path) else []
    series = iteration_series(events)
    destination = out_dir if out_dir is not None else run_dir

    lines: List[str] = [f"# Run report: {manifest.run_id}", ""]

    lines.append("## Manifest")
    lines.append("")
    lines.append("| field | value |")
    lines.append("|---|---|")
    for label, attr in _MANIFEST_ROWS:
        lines.append(f"| {label} | {_fmt(getattr(manifest, attr))} |")
    if manifest.options:
        opts = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(manifest.options.items())
        )
        lines.append(f"| options | {opts} |")
    lines.append("")

    lines.append("## Final metrics")
    lines.append("")
    if manifest.final_metrics:
        lines.append("| metric | value |")
        lines.append("|---|---|")
        for key in sorted(manifest.final_metrics):
            lines.append(f"| {key} | {_fmt(manifest.final_metrics[key])} |")
    else:
        lines.append("(run not finalized)")
    lines.append("")

    lines.append(f"## Events ({len(events)} total)")
    lines.append("")
    lines.extend(_event_summary(events))
    incidents = _incident_lines(events)
    if incidents:
        lines.append("")
        lines.append("### Incidents")
        lines.append("")
        lines.extend(incidents)
    lines.append("")

    plotted: List[str] = []
    if write and series:
        # Imported lazily: harness.__init__ pulls in runners, which
        # imports this package - a module-level import would cycle.
        from ..harness.plots import curves_svg, save_svg

        os.makedirs(destination, exist_ok=True)
        for metric in PLOTTED_METRICS:
            if metric not in series:
                continue
            xs, ys = series[metric]
            if not xs:
                continue
            svg = curves_svg(
                {metric: (xs, ys)},
                title=f"{manifest.design} / {manifest.mode}: {metric}",
                ylabel=metric,
            )
            name = f"curve_{metric}.svg"
            save_svg(svg, os.path.join(destination, name))
            plotted.append(name)
    lines.append("## Convergence")
    lines.append("")
    if plotted:
        for name in plotted:
            lines.append(f"- ![{name}]({name})")
    elif series:
        lines.append(
            f"(series available, plots not written: {sorted(series)})"
        )
    else:
        lines.append("(no iteration series recorded)")
    lines.append("")

    lines.append("## Spans")
    lines.append("")
    if manifest.spans:
        lines.append("```")
        lines.append(format_stats(manifest.spans, f"{manifest.run_id} spans"))
        lines.append("```")
    else:
        lines.append("(no spans recorded)")
    lines.append("")

    markdown = "\n".join(lines)
    if write:
        os.makedirs(destination, exist_ok=True)
        with open(os.path.join(destination, "report.md"), "w") as handle:
            handle.write(markdown)
    return markdown
