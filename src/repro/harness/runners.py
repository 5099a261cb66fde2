"""Single-run drivers: one placer mode on one design, evaluated honestly.

Each run returns a :class:`RunRecord` with final WNS/TNS from the *golden*
STA (never the smoothed objective), exact HPWL, wall-clock runtime of the
placement itself, and the per-iteration trace for curve plots.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.objective import TimingObjectiveOptions
from ..core.timing_placer import TimingDrivenPlacer, TimingPlacerOptions
from ..netlist.design import Design
from ..perf import PROFILER
from ..place.netweight import NetWeightingPlacer, NetWeightOptions
from ..place.placer import GlobalPlacer, PlacerOptions, PlacerResult
from ..sta.analysis import run_sta
from ..telemetry.events import recording
from ..telemetry.manifest import make_run_id
from ..telemetry.registry import heartbeating
from ..telemetry.session import RunSession, start_run

__all__ = ["MODES", "RunRecord", "run_mode", "PROFILE_DIR"]

#: Default destination of ``--profile`` breakdowns (relative to the cwd).
PROFILE_DIR = os.path.join("benchmarks", "results")

#: The three placers of Table 3.
MODES = ("dreamplace", "netweight", "ours")


@dataclass
class RunRecord:
    """Outcome of one (design, mode) run."""

    design: str
    mode: str
    wns: float
    tns: float
    hpwl: float
    runtime: float
    iterations: int
    stop_reason: str
    x: np.ndarray
    y: np.ndarray
    trace: List[Dict[str, float]] = field(default_factory=list)
    #: Per-kernel profiler stats of the run (``--profile`` only).
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: Numerical-guard event counts (non-empty only when faults occurred).
    nonfinite_events: Dict[str, int] = field(default_factory=dict)
    #: Escalated recoveries (step-shrink retries + checkpoint rollbacks).
    recoveries: int = 0
    #: Telemetry run directory (``telemetry_dir`` runs only).
    run_dir: Optional[str] = None
    #: Hierarchical profiler span tree (parallel/profiled runs; merged
    #: across workers by the suite runner).
    span_tree: Optional[Dict[str, object]] = None
    #: Seconds spent acquiring the design (generation or cache load)
    #: before the solve.  Wall-clock: excluded from suite metrics.
    setup_s: float = 0.0
    #: Design-bundle cache provenance for this run (``CacheInfo`` dict;
    #: ``None`` when the design was constructed without the cache).
    design_cache: Optional[Dict[str, object]] = None
    #: Execution attempts the supervised suite runner spent on this task
    #: (1 = first attempt succeeded; >1 = retried after a failure).
    attempts: int = 1
    #: Quarantine provenance when the task exhausted its retries
    #: (``TaskOutcome`` dict with the failure taxonomy); None for runs
    #: that produced real metrics.
    quarantine: Optional[Dict[str, object]] = None
    #: Resource rollup of the run (peak RSS bytes, CPU user/sys second
    #: deltas, fault counts; see :mod:`repro.telemetry.resources`);
    #: None off-POSIX or for unsampled runs.  Wall-clock-class data:
    #: excluded from suite metrics and determinism gates.
    resources: Optional[Dict[str, object]] = None

    @property
    def quarantined(self) -> bool:
        """True for a placeholder record of a task that never succeeded."""
        return self.quarantine is not None

    def summary(self) -> str:
        if self.quarantined:
            failure = (self.quarantine or {}).get("failure", "unknown")
            return (
                f"{self.design:<12} {self.mode:<10} QUARANTINED "
                f"({failure} after {self.attempts} attempts)"
            )
        return (
            f"{self.design:<12} {self.mode:<10} WNS={self.wns:9.1f} "
            f"TNS={self.tns:11.1f} HPWL={self.hpwl:10.1f} "
            f"t={self.runtime:6.2f}s it={self.iterations}"
        )


def run_mode(
    design: Design,
    mode: str,
    placer_options: Optional[PlacerOptions] = None,
    timing_options: Optional[TimingObjectiveOptions] = None,
    nw_options: Optional[NetWeightOptions] = None,
    with_trace_sta: bool = False,
    profile: bool = False,
    profile_dir: Optional[str] = None,
    collect_spans: bool = False,
    telemetry_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    sta_graph=None,
    design_cache: Optional[Dict[str, object]] = None,
    supervision: Optional[Dict[str, object]] = None,
) -> RunRecord:
    """Run one of the three Table 3 placers on a design.

    ``sta_graph`` reuses a prebuilt levelized
    :class:`~repro.sta.graph.TimingGraph` of ``design`` - the
    timing-aware placers (``ours``, ``netweight``) and the final golden
    STA all skip their per-run graph rebuild; results are bit-identical
    to a fresh build.  ``design_cache`` is the cache-provenance dict
    stamped into the run's telemetry manifest and record;
    ``supervision`` likewise stamps supervised-retry provenance
    (``{"attempt": n, ...}``) when the suite supervisor re-ran the task.

    ``with_trace_sta`` adds periodic golden-STA samples to the trace (for
    Figure 8 curves); it is excluded from the reported runtime, which is
    re-measured around the placement call only.

    ``profile=True`` turns the shared :data:`repro.perf.PROFILER` on for
    the duration of the run and dumps the hierarchical span breakdown to
    ``<profile_dir>/profile_<design>_<mode>_<run_id>.txt`` (default
    directory ``benchmarks/results/``), updating a
    ``profile_<design>_<mode>_latest.txt`` pointer; the flat stats dict
    is also attached to the returned record.

    ``collect_spans=True`` records the hierarchical span tree onto the
    returned record (for ``--trace-out`` exports) without the text-dump
    side effects of ``profile``; implied by ``profile``/``telemetry_dir``.

    ``telemetry_dir`` opens a telemetry run under that directory (see
    :func:`repro.telemetry.session.start_run`): every layer's recorder
    events stream to ``events.jsonl`` and the run manifest is finalized
    with the golden-STA outcome and the span tree.  When the placer
    options carry ``resume_from``, the telemetry run resumes too
    (``telemetry_dir`` may then point directly at the original run
    directory).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    popts = placer_options if placer_options is not None else PlacerOptions(
        max_iters=600
    )

    session: Optional[RunSession] = None
    if telemetry_dir is not None:
        session = start_run(
            telemetry_dir,
            design=design.name,
            mode=mode,
            seed=popts.seed,
            options={
                "optimizer": popts.optimizer,
                "max_iters": popts.max_iters,
                "trace_every": popts.trace_every,
                "checkpoint_every": popts.checkpoint_every,
                "with_trace_sta": with_trace_sta,
            },
            run_id=run_id,
            resume=bool(popts.resume_from),
            attempt=int((supervision or {}).get("attempt", 1)),
        )
        if design_cache is not None:
            session.manifest.design_cache = dict(design_cache)
        if supervision is not None:
            session.manifest.supervision = dict(supervision)

    # The session enables the profiler itself (the manifest carries the
    # span tree); --profile without telemetry keeps the legacy behaviour.
    use_prof = profile or collect_spans or session is not None
    was_enabled = PROFILER.enabled
    if (profile or collect_spans) and session is None:
        PROFILER.reset()
        PROFILER.enable()

    try:
        with contextlib.ExitStack() as stack:
            if session is not None:
                stack.enter_context(recording(session.recorder))
                stack.enter_context(heartbeating(session.heartbeat))
            start = time.perf_counter()
            if mode == "dreamplace":
                hook = (
                    _sta_trace_hook(design, every=10)
                    if with_trace_sta
                    else None
                )
                result: PlacerResult = GlobalPlacer(
                    design, popts, extra_grad_fn=hook
                ).run()
            elif mode == "netweight":
                result = NetWeightingPlacer(
                    design, popts, nw_options, graph=sta_graph
                ).run()
            else:
                tp_options = TimingPlacerOptions(
                    placer=popts,
                    timing=timing_options
                    if timing_options is not None
                    else TimingObjectiveOptions(),
                    sta_in_trace=with_trace_sta,
                )
                result = TimingDrivenPlacer(
                    design, tp_options, graph=sta_graph
                ).run()
            runtime = time.perf_counter() - start
    except BaseException:
        if session is not None:
            session.finalize(final_metrics={"stop_reason": "exception"})
        raise

    stats = None
    if use_prof:
        stats = PROFILER.stats()
    if profile:
        out_dir = profile_dir if profile_dir is not None else PROFILE_DIR
        rid = session.run_id if session is not None else make_run_id(
            design.name, mode
        )
        _dump_profile(out_dir, design.name, mode, rid)
    if (profile or collect_spans) and session is None:
        PROFILER.enabled = was_enabled

    if session is not None and session.heartbeat is not None:
        session.heartbeat.update(phase="sta", force=True)
    final = run_sta(design, result.x, result.y, graph=sta_graph)
    if session is not None:
        session.finalize(
            final_metrics={
                "wns": final.wns_setup,
                "tns": final.tns_setup,
                "hpwl": result.hpwl,
                "overflow": result.overflow,
                "iterations": result.iterations,
                "stop_reason": result.stop_reason,
                "runtime": runtime,
            }
        )
    # Spans accumulate until the next reset, so the tree is still
    # readable after finalize restored the profiler's enabled state.
    span_tree = PROFILER.tree() if use_prof else None
    return RunRecord(
        design=design.name,
        mode=mode,
        wns=final.wns_setup,
        tns=final.tns_setup,
        hpwl=result.hpwl,
        runtime=runtime,
        iterations=result.iterations,
        stop_reason=result.stop_reason,
        x=result.x,
        y=result.y,
        trace=result.trace,
        profile=stats,
        nonfinite_events=result.nonfinite_events,
        recoveries=result.recoveries,
        run_dir=session.run_dir if session is not None else None,
        span_tree=span_tree,
        design_cache=dict(design_cache) if design_cache is not None else None,
        resources=session.manifest.resources if session is not None else None,
    )


def _dump_profile(out_dir: str, design: str, mode: str, run_id: str) -> str:
    """Write this run's span breakdown without clobbering earlier runs.

    Each dump gets a unique ``profile_<design>_<mode>_<run_id>.txt``; a
    ``profile_<design>_<mode>_latest.txt`` symlink points at the newest
    one (on filesystems without symlink support it degrades to a pointer
    file containing the dump's filename).
    """
    os.makedirs(out_dir, exist_ok=True)
    # Auto run ids already start with "<design>_<mode>_"; don't repeat it.
    suffix = run_id[len(f"{design}_{mode}_"):] if run_id.startswith(
        f"{design}_{mode}_"
    ) else run_id
    name = f"profile_{design}_{mode}_{suffix}.txt"
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        handle.write(PROFILER.report(f"{design} / {mode}") + "\n")
        handle.write("\n")
        handle.write(PROFILER.span_report(f"{design} / {mode} spans") + "\n")
    latest = os.path.join(out_dir, f"profile_{design}_{mode}_latest.txt")
    try:
        if os.path.islink(latest) or os.path.exists(latest):
            os.remove(latest)
        os.symlink(name, latest)
    except OSError:
        with open(latest, "w") as handle:
            handle.write(name + "\n")
    return path


def _sta_trace_hook(design: Design, every: int = 10):
    """Metrics-only placer hook: periodic golden STA into the trace.

    Used for Figure 8 curves of the plain-wirelength mode, which otherwise
    never evaluates timing.  Returns zero gradients so the optimization is
    unaffected; the extra STA time is instrumentation, so callers that
    measure runtime should run with ``with_trace_sta=False``.
    """
    from ..sta.analysis import StaticTimingAnalyzer

    sta = StaticTimingAnalyzer(design)
    zeros = np.zeros(design.n_cells)

    def hook(iteration: int, x: np.ndarray, y: np.ndarray):
        if iteration % every != 0:
            return None
        res = sta.run(x, y)
        return zeros, zeros, {"wns": res.wns_setup, "tns": res.tns_setup}

    return hook
