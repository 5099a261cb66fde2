"""Process-parallel execution of independent placement runs.

The Table-3 matrix and the suite runner fan (design, mode, seed) tasks
out across worker processes.  Each task is self-contained - the worker
loads the design by name, seeds its own run and streams its own
telemetry - so runs never share mutable state and the fan-out is
deterministic:

- every run's randomness comes from its task's explicit seed (the placer
  seeds a fresh ``Generator`` per run; no global RNG is shared);
- results are collected in task order regardless of completion order;
- per-run telemetry goes to separate run directories whose ids are
  derived from the task (not from timestamps), and the parent merges the
  manifests and profiler span trees afterwards.

Workers are **warm**: pools are pinned to the ``spawn`` start method
(fork would inherit the parent's warmed NumPy/RNG state, which is both
platform-dependent and a determinism hazard), and each worker preloads
the shared immutable design state - netlist CSRs, library LUTs,
levelized timing graph - once per process through the design-bundle
cache (:mod:`repro.netlist.cache`).  Each task then only carries
``(design name, mode, seed, options)``; the parent primes the on-disk
cache before fanning out so workers never race to generate the same
design.

Execution itself is delegated to :mod:`repro.harness.supervisor`.  The
default (supervised) path adds per-task timeouts, bounded deterministic
retry, crash isolation with worker respawn, and quarantine - one dead or
poisoned task no longer costs the suite.  ``supervise=False`` keeps the
legacy bare executor fan-out (the byte-identity reference); either way a
terminal failure salvages every completed run into a partial suite
manifest (``"partial": true``) before the typed
:class:`~repro.harness.supervisor.SupervisorError` propagates.

Consequently ``--jobs N`` *and supervision* change wall-clock only: on a
fault-free suite the per-design final metrics are bit-identical across
``--jobs 1`` / ``--jobs N`` / supervised / unsupervised (the CI
determinism job diffs the metric files byte for byte), and cached runs
are bit-identical to uncached ones (pickle round-trips NumPy arrays
exactly).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing  # noqa: F401  (re-exported: tests spy get_context here)

from ..netlist.cache import ensure_cached
from ..perf import merge_span_trees
from ..telemetry.manifest import load_manifest
from .runners import RunRecord
from .supervisor import (
    PoolBrokenError,
    SupervisorError,
    SupervisorOptions,
    SuiteTask,
    TaskFailedError,
    _execute_task,  # noqa: F401  (re-exported: legacy import location)
    run_pool_unsupervised,
    run_supervised,
)
from .suite import design_spec

__all__ = [
    "SuiteTask",
    "SupervisorError",
    "SupervisorOptions",
    "PoolBrokenError",
    "TaskFailedError",
    "run_parallel",
    "run_suite",
    "suite_metrics",
    "write_suite_manifest",
]

#: Filename of the merged suite summary inside a telemetry directory.
SUITE_MANIFEST_FILENAME = "suite_manifest.json"


def _prime_cache(
    tasks: Sequence[SuiteTask], cache_dir: Optional[str]
) -> None:
    """Prime the on-disk bundle cache serially so spawned workers always
    hit a valid file instead of racing to generate the same design."""
    names: List[str] = []
    for task in tasks:
        if task.design not in names:
            names.append(task.design)
    for name in names:
        ensure_cached(design_spec(name), cache_dir)


def _salvage_partial_manifest(
    exc: SupervisorError,
    tasks: Sequence[SuiteTask],
    jobs: int,
) -> None:
    """Satellite fix: never abandon completed runs on a terminal failure.

    Writes a partial suite manifest (``"partial": true``) holding every
    completed record the failure salvaged, into the suite's telemetry
    directory when there is one, and attaches its path to the exception.
    """
    directory = next(
        (t.telemetry_dir for t in tasks if t.telemetry_dir), None
    )
    if directory is None or not exc.completed:
        return
    completed = sorted(exc.completed, key=lambda pair: pair[0])
    try:
        exc.partial_manifest = write_suite_manifest(
            directory,
            [tasks[i] for i, _ in completed],
            [rec for _, rec in completed],
            jobs,
            partial=True,
        )
    except OSError:  # pragma: no cover - salvage must not mask the failure
        pass


def run_parallel(
    tasks: Sequence[SuiteTask],
    jobs: int = 1,
    verbose: bool = False,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    supervise: bool = True,
    supervisor_options: Optional[SupervisorOptions] = None,
) -> List[RunRecord]:
    """Run tasks across ``jobs`` worker processes; results in task order.

    Thin wrapper over :func:`run_tasks` for callers that only need the
    records (quarantined tasks contribute placeholder records with
    ``stop_reason="quarantined:<kind>"``).
    """
    records, _ = run_tasks(
        tasks,
        jobs=jobs,
        verbose=verbose,
        use_cache=use_cache,
        cache_dir=cache_dir,
        supervise=supervise,
        supervisor_options=supervisor_options,
    )
    return records


def run_tasks(
    tasks: Sequence[SuiteTask],
    jobs: int = 1,
    verbose: bool = False,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    supervise: bool = True,
    supervisor_options: Optional[SupervisorOptions] = None,
) -> Tuple[List[RunRecord], Optional[Dict[str, Any]]]:
    """Run tasks, returning ``(records, supervision provenance)``.

    ``supervise=True`` (the default) routes through
    :func:`repro.harness.supervisor.run_supervised`; the provenance dict
    is non-None only when supervision actually intervened (a retry,
    quarantine, respawn, or serial degradation), so fault-free suites
    stay byte-identical to unsupervised output.  ``supervise=False`` is
    the legacy bare executor fan-out - no retries, first failure aborts.

    Either way, a terminal :class:`SupervisorError` first salvages every
    completed record into a partial suite manifest (satellite fix) and
    then propagates with ``.partial_manifest`` set.
    """
    tasks = list(tasks)
    if use_cache:
        _prime_cache(tasks, cache_dir)
    try:
        if supervise:
            records, result = run_supervised(
                tasks,
                jobs=jobs,
                options=supervisor_options,
                verbose=verbose,
                use_cache=use_cache,
                cache_dir=cache_dir,
            )
            return records, (
                result.supervision_dict() if result.eventful else None
            )
        if jobs <= 1 or len(tasks) <= 1:
            # Unsupervised serial reference path, in-process.
            records = []
            for index, task in enumerate(tasks):
                try:
                    record = _execute_task(
                        task, use_cache, cache_dir, task_index=index
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    raise TaskFailedError(
                        f"{type(exc).__name__}: {exc}",
                        task_index=index,
                        run_id=task.run_id,
                        completed=list(enumerate(records)),
                    ) from exc
                records.append(record)
                if verbose:
                    print(record.summary())
            return records, None
        return (
            run_pool_unsupervised(
                tasks,
                jobs=jobs,
                verbose=verbose,
                use_cache=use_cache,
                cache_dir=cache_dir,
            ),
            None,
        )
    except SupervisorError as exc:
        _salvage_partial_manifest(exc, tasks, jobs)
        raise


def _final_metrics(rec: RunRecord) -> Dict[str, Any]:
    """Deterministic final metrics of one run (no wall-clock fields)."""
    return {
        "wns": rec.wns,
        "tns": rec.tns,
        "hpwl": rec.hpwl,
        "iterations": rec.iterations,
        "stop_reason": rec.stop_reason,
    }


def suite_metrics(
    tasks: Sequence[SuiteTask], records: Sequence[RunRecord]
) -> Dict[str, Any]:
    """Final metrics keyed ``design -> mode -> s<seed>``.

    Runtime (and other wall-clock quantities) are deliberately excluded:
    this dict must be byte-identical between ``--jobs 1`` and
    ``--jobs N`` runs of the same matrix.  Quarantined placeholder
    records are excluded too - their NaN metrics would poison the JSON
    and they carry no real result; the suite manifest records them under
    ``supervision`` instead.
    """
    out: Dict[str, Any] = {}
    for task, rec in zip(tasks, records):
        if rec.quarantined:
            continue
        out.setdefault(rec.design, {}).setdefault(rec.mode, {})[
            f"s{task.seed}"
        ] = _final_metrics(rec)
    return out


def _suite_resources(
    records: Sequence[RunRecord],
) -> Optional[Dict[str, Any]]:
    """Suite-level resource rollup: summed CPU/faults, max of the peaks.

    CPU seconds and fault counts are per-run deltas, so they sum to a
    suite total; peak RSS is per *process* (workers run tasks serially),
    so the honest aggregate is the worst single process, not a sum.
    Returns None when no record carries a sample (off-POSIX).
    """
    sampled = [r.resources for r in records if r.resources is not None]
    if not sampled:
        return None
    return {
        "peak_rss_bytes": max(int(s["peak_rss_bytes"]) for s in sampled),
        "cpu_user_s": sum(float(s["cpu_user_s"]) for s in sampled),
        "cpu_sys_s": sum(float(s["cpu_sys_s"]) for s in sampled),
        "minor_faults": sum(int(s["minor_faults"]) for s in sampled),
        "major_faults": sum(int(s["major_faults"]) for s in sampled),
        "sampled_runs": len(sampled),
    }


def write_suite_manifest(
    directory: str,
    tasks: Sequence[SuiteTask],
    records: Sequence[RunRecord],
    jobs: int,
    supervision: Optional[Dict[str, Any]] = None,
    partial: bool = False,
) -> str:
    """Merge per-run telemetry into one ``suite_manifest.json``.

    Collects each run's manifest (when the run streamed telemetry) and
    merges the per-run profiler span trees into a single aggregate tree,
    so a parallel suite still yields one hierarchical profile.

    ``supervision`` is the supervisor's provenance dict; it (and per-run
    ``attempts``/``quarantine`` fields) is only emitted when supervision
    actually intervened, so a fault-free supervised manifest stays
    byte-identical to an unsupervised one.  ``partial=True`` marks a
    salvage manifest written on a terminal failure: it holds only the
    completed subset of the suite.
    """
    runs = []
    for task, rec in zip(tasks, records):
        entry: Dict[str, Any] = {
            "design": rec.design,
            "mode": rec.mode,
            "seed": task.seed,
            "run_id": task.run_id,
            "final_metrics": None if rec.quarantined else _final_metrics(rec),
            "runtime": rec.runtime,
            "setup_s": rec.setup_s,
            "design_cache": rec.design_cache,
        }
        if rec.attempts > 1:
            entry["attempts"] = rec.attempts
        if rec.resources is not None:
            entry["resources"] = rec.resources
        if rec.quarantined:
            entry["quarantined"] = True
            entry["quarantine"] = rec.quarantine
        if rec.run_dir:
            entry["run_dir"] = rec.run_dir
            try:
                entry["manifest"] = load_manifest(rec.run_dir).to_dict()
            except (OSError, ValueError):
                entry["manifest"] = None
        runs.append(entry)
    trees = [rec.span_tree for rec in records if rec.span_tree]
    payload = {
        "jobs": jobs,
        "n_runs": len(runs),
        "runs": runs,
        "merged_span_tree": merge_span_trees(trees) if trees else None,
        "metrics": suite_metrics(tasks, records),
        "resources": _suite_resources(records),
    }
    if supervision is not None:
        payload["supervision"] = supervision
    if partial:
        payload["partial"] = True
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SUITE_MANIFEST_FILENAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def run_suite(
    designs: Sequence[str],
    modes: Sequence[str],
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    max_iters: int = 600,
    telemetry_dir: Optional[str] = None,
    rsmt_period: Optional[int] = None,
    verbose: bool = False,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    supervise: bool = True,
    supervisor_options: Optional[SupervisorOptions] = None,
) -> List[RunRecord]:
    """Fan the designs x modes x seeds matrix out to ``jobs`` workers."""
    tasks = [
        SuiteTask(
            design=design,
            mode=mode,
            seed=seed,
            max_iters=max_iters,
            rsmt_period=rsmt_period,
            telemetry_dir=telemetry_dir,
        )
        for design in designs
        for mode in modes
        for seed in seeds
    ]
    records, supervision = run_tasks(
        tasks,
        jobs=jobs,
        verbose=verbose,
        use_cache=use_cache,
        cache_dir=cache_dir,
        supervise=supervise,
        supervisor_options=supervisor_options,
    )
    if telemetry_dir is not None:
        write_suite_manifest(
            telemetry_dir, tasks, records, jobs, supervision=supervision
        )
    return records
