"""Diff two telemetry runs: manifests, final metrics, per-layer spans.

``python -m repro compare <run_a> <run_b>`` is the CI-usable
regression gate: it exits non-zero when the runs' final metrics drift
past a configurable relative tolerance.  Two identical-seed runs of the
deterministic placer compare clean (wall-clock differences are
informational only); a perturbed seed or a behavioural change trips the
threshold.

Span timing comparison is informational by default (wall-clock is
machine-noisy); pass a ``span_rtol`` to additionally gate on per-span
total-time drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from .manifest import RunManifest, load_manifest

__all__ = ["CompareResult", "compare_runs", "GATED_METRICS"]

#: Final metrics gated by the tolerance check (deterministic outcomes).
#: ``runtime`` and wall-clock are reported but never gate.
GATED_METRICS = ("wns", "tns", "hpwl", "overflow", "iterations")

#: Manifest identity fields surfaced in the diff.
_IDENTITY_FIELDS = (
    "design",
    "mode",
    "seed",
    "schema_version",
    "git_rev",
    "python_version",
    "numpy_version",
)


@dataclass
class CompareResult:
    """Outcome of one run-vs-run comparison."""

    run_a: str
    run_b: str
    #: Gate violations; non-empty means the comparison failed.
    regressions: List[str] = field(default_factory=list)
    #: Non-gating observations (identity diffs, runtime drift, spans).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [f"compare {self.run_a} vs {self.run_b}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for reg in self.regressions:
            lines.append(f"  REGRESSION: {reg}")
        lines.append("result: " + ("OK" if self.ok else "REGRESSION"))
        return "\n".join(lines)


def _rel_close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare_runs(
    dir_a: str,
    dir_b: str,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    span_rtol: Optional[float] = None,
    metrics: Tuple[str, ...] = GATED_METRICS,
) -> CompareResult:
    """Compare two run directories; see the module docstring for policy."""
    ma: RunManifest = load_manifest(dir_a)
    mb: RunManifest = load_manifest(dir_b)
    result = CompareResult(run_a=ma.run_id, run_b=mb.run_id)

    # ------------------------------------------------------------------
    # Manifest identity: design/mode mismatches make the metric diff
    # meaningless, so they gate; environment drift is informational.
    # ------------------------------------------------------------------
    for fld in _IDENTITY_FIELDS:
        va, vb = getattr(ma, fld), getattr(mb, fld)
        if va == vb:
            continue
        line = f"manifest.{fld}: {va!r} != {vb!r}"
        if fld in ("design", "mode"):
            result.regressions.append(line)
        else:
            result.notes.append(line)
    opt_keys = set(ma.options) | set(mb.options)
    for key in sorted(opt_keys):
        va, vb = ma.options.get(key), mb.options.get(key)
        if va != vb:
            result.notes.append(f"options.{key}: {va!r} != {vb!r}")

    # ------------------------------------------------------------------
    # reprolint provenance: dirty trees and rule-set drift are flagged
    # but never gate (two identical-seed runs must still compare OK).
    # ------------------------------------------------------------------
    for label, manifest in (("a", ma), ("b", mb)):
        analysis = manifest.analysis or {}
        if analysis.get("error"):
            result.notes.append(
                f"run {label} ({manifest.run_id}): reprolint provenance "
                f"unavailable ({analysis['error']})"
            )
        elif analysis.get("clean") is False:
            result.notes.append(
                f"run {label} ({manifest.run_id}) was produced from a dirty "
                f"tree: {analysis.get('finding_count', '?')} "
                "reprolint finding(s)"
            )
    aa, ab = ma.analysis or {}, mb.analysis or {}
    if aa and ab and aa.get("rules_version") != ab.get("rules_version"):
        result.notes.append(
            "reprolint rule set differs between runs: "
            f"{aa.get('rules_version')!r} != {ab.get('rules_version')!r}"
        )

    # ------------------------------------------------------------------
    # Final metrics: the regression gate.
    # ------------------------------------------------------------------
    fa, fb = ma.final_metrics, mb.final_metrics
    if not fa or not fb:
        result.regressions.append(
            "final metrics missing "
            f"(a: {sorted(fa) or 'none'}, b: {sorted(fb) or 'none'}); "
            "were both runs finalized?"
        )
    for key in metrics:
        if key not in fa or key not in fb:
            if key in fa or key in fb:
                result.regressions.append(
                    f"final.{key}: present in only one run"
                )
            continue
        va, vb = fa[key], fb[key]
        try:
            close = _rel_close(float(va), float(vb), rtol, atol)
        except (TypeError, ValueError):
            close = va == vb
        if not close:
            result.regressions.append(
                f"final.{key}: {_num(va)} vs {_num(vb)} "
                f"(rel diff {_reldiff(va, vb):.3g} > rtol {rtol:g})"
            )
    sa, sb = fa.get("stop_reason"), fb.get("stop_reason")
    if sa is not None and sb is not None and sa != sb:
        result.regressions.append(f"final.stop_reason: {sa!r} != {sb!r}")
    ra, rb = fa.get("runtime"), fb.get("runtime")
    if isinstance(ra, (int, float)) and isinstance(rb, (int, float)) and ra:
        result.notes.append(
            f"runtime: {ra:.3f}s vs {rb:.3f}s ({rb / ra:.2f}x, informational)"
        )

    # ------------------------------------------------------------------
    # Spans: total-time drift per span name.
    # ------------------------------------------------------------------
    spans_a, spans_b = ma.spans or {}, mb.spans or {}
    drifts: List[Tuple[float, str]] = []
    for name in sorted(set(spans_a) | set(spans_b)):
        if name not in spans_a or name not in spans_b:
            line = f"span {name}: present in only one run"
            if span_rtol is not None:
                result.regressions.append(line)
            else:
                result.notes.append(line)
            continue
        ta, tb = spans_a[name]["total_s"], spans_b[name]["total_s"]
        rel = _reldiff(ta, tb)
        if span_rtol is not None and not _rel_close(ta, tb, span_rtol, 1e-4):
            result.regressions.append(
                f"span {name}: {ta:.4f}s vs {tb:.4f}s "
                f"(rel diff {rel:.3g} > span rtol {span_rtol:g})"
            )
        elif rel > 0:
            drifts.append((rel, f"span {name}: {ta:.4f}s vs {tb:.4f}s"))
    if span_rtol is None and drifts:
        drifts.sort(reverse=True)
        for rel, line in drifts[:5]:
            result.notes.append(f"{line} (rel diff {rel:.2f}, informational)")
    return result


def _num(value: Any) -> str:
    try:
        return f"{float(value):.6g}"
    except (TypeError, ValueError):
        return repr(value)


def _reldiff(a: Any, b: Any) -> float:
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return float("inf")
    denom = max(abs(fa), abs(fb))
    return abs(fa - fb) / denom if denom else 0.0
