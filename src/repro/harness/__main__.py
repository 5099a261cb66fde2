"""Command-line entry point: reproduce the paper's evaluation.

Usage::

    python -m repro.harness                 # Table 2 + subset Table 3
    python -m repro.harness --full          # all 8 designs (minutes)
    python -m repro.harness --fig8          # also collect Figure 8 curves
    python -m repro.harness --designs miniblue4 miniblue18
    python -m repro.harness --validate --full        # design checks only
    python -m repro.harness --checkpoint-every 50    # resumable runs
    python -m repro.harness --resume benchmarks/results/checkpoints/... \
        --designs miniblue1 --mode ours     # restart a killed run

Telemetry toolchain (subcommands)::

    python -m repro.harness run --design miniblue1 --mode ours \
        --telemetry out/                    # one instrumented run
    python -m repro.harness report out/<run_id>       # markdown + curves
    python -m repro.harness compare out/<a> out/<b>   # regression gate

Live observability::

    python -m repro.harness status out/     # who is running right now
    python -m repro.harness tail out/ --run <run_id>  # follow convergence
    python -m repro.harness trend           # perf-regression ledger gate
"""

from __future__ import annotations

import argparse
import sys

from ..place.placer import PlacerOptions
from ..runtime import validate_design
from .curves import format_fig8, run_fig8
from .runners import MODES, run_mode
from .suite import format_table2, load_design
from .table3 import format_table3, run_table3

#: Subcommand names; anything else falls through to the legacy flag CLI.
_SUBCOMMANDS = (
    "run",
    "report",
    "compare",
    "suite",
    "status",
    "tail",
    "trend",
)


def _run_validate(designs) -> int:
    """``--validate``: structural design checks only, no placement."""
    failed = 0
    for name in designs:
        report = validate_design(load_design(name))
        print(report.format())
        if not report.ok:
            failed += 1
    return 1 if failed else 0


def _run_resume(path: str, designs, mode: str, args) -> int:
    """``--resume``: restart one placer run from a checkpoint file."""
    if not designs or len(designs) != 1:
        raise SystemExit(
            "--resume needs exactly one design (--designs <name>)"
        )
    design = load_design(designs[0])
    record = run_mode(
        design,
        mode,
        placer_options=PlacerOptions(
            max_iters=args.max_iters,
            resume_from=path,
            checkpoint_every=args.checkpoint_every,
        ),
        profile=args.profile,
    )
    print(record.summary())
    if record.nonfinite_events:
        print(f"guard events: {record.nonfinite_events}")
    return 0


def _timing_options(args):
    """TimingObjectiveOptions from CLI flags, or None for the defaults."""
    if args.rsmt_period is None:
        return None
    from ..core.objective import TimingObjectiveOptions

    return TimingObjectiveOptions(rsmt_period=args.rsmt_period)


def _cmd_run(args) -> int:
    """``run``: one instrumented (design, mode) placement."""
    design = load_design(args.design)
    record = run_mode(
        design,
        args.mode,
        placer_options=PlacerOptions(
            max_iters=args.max_iters,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
        ),
        timing_options=_timing_options(args),
        profile=args.profile,
        collect_spans=bool(args.trace_out),
        telemetry_dir=args.telemetry,
        run_id=args.run_id,
    )
    print(record.summary())
    if record.nonfinite_events:
        print(f"guard events: {record.nonfinite_events}")
    if record.run_dir:
        print(f"telemetry: {record.run_dir}")
    if args.trace_out:
        from ..perf import write_chrome_trace

        if record.span_tree:
            write_chrome_trace(
                args.trace_out,
                [(f"{record.design}/{record.mode}", record.span_tree)],
            )
            print(f"trace: {args.trace_out}")
        else:  # pragma: no cover - collect_spans guarantees a tree
            print("no span tree collected; trace not written", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    """``suite``: designs x modes x seeds matrix, optionally parallel.

    Runs under the task supervisor by default (crash isolation, per-task
    timeouts, bounded deterministic retry, quarantine); failures surface
    as one-line :class:`SupervisorError` summaries, never multi-process
    tracebacks.  Exits 1 when the suite aborted (unsupervised path) or
    when any task was quarantined - completed results are still written.
    """
    import json

    from .parallel import (
        SupervisorError,
        SupervisorOptions,
        SuiteTask,
        run_tasks,
        suite_metrics,
        write_suite_manifest,
    )

    designs = args.designs
    if not designs:
        from .suite import SUITE

        designs = [e.name for e in SUITE]
    tasks = [
        SuiteTask(
            design=design,
            mode=mode,
            seed=seed,
            max_iters=args.max_iters,
            rsmt_period=args.rsmt_period,
            telemetry_dir=args.telemetry,
            collect_spans=bool(args.trace_out),
        )
        for design in designs
        for mode in args.modes
        for seed in args.seeds
    ]
    options = SupervisorOptions(
        task_timeout=args.task_timeout, max_retries=args.max_retries
    )
    try:
        records, supervision = run_tasks(
            tasks,
            jobs=args.jobs,
            verbose=True,
            use_cache=not args.no_design_cache,
            cache_dir=args.cache_dir,
            supervise=not args.no_supervise,
            supervisor_options=options,
        )
    except SupervisorError as exc:
        print(exc.summary(), file=sys.stderr)
        if exc.partial_manifest:
            print(
                f"partial suite manifest: {exc.partial_manifest}",
                file=sys.stderr,
            )
        return 1
    if args.telemetry:
        path = write_suite_manifest(
            args.telemetry, tasks, records, args.jobs, supervision=supervision
        )
        print(f"suite manifest: {path}")
    if args.trace_out:
        from ..perf import merge_span_trees, write_chrome_trace

        named = [
            (task.run_id, rec.span_tree)
            for task, rec in zip(tasks, records)
            if rec.span_tree
        ]
        if named:
            named.append(
                ("suite (merged)", merge_span_trees([t for _, t in named]))
            )
            write_chrome_trace(args.trace_out, named)
            print(f"trace: {args.trace_out}")
        else:
            print(
                "no span trees collected; trace not written", file=sys.stderr
            )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(
                suite_metrics(tasks, records),
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"metrics: {args.metrics_out}")
    quarantined = [r for r in records if r.quarantined]
    if quarantined:
        for rec in quarantined:
            print(rec.summary(), file=sys.stderr)
        print(
            f"{len(quarantined)} task(s) quarantined; "
            "see the suite manifest's supervision block",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args) -> int:
    """``report``: render one telemetry run to markdown + SVG curves."""
    from ..telemetry.report import render_report

    markdown = render_report(args.run_dir, out_dir=args.out)
    print(markdown)
    return 0


def _cmd_compare(args) -> int:
    """``compare``: gate run B against run A; exit 1 on regression."""
    from ..telemetry.compare import compare_runs

    result = compare_runs(
        args.run_a,
        args.run_b,
        rtol=args.rtol,
        atol=args.atol,
        span_rtol=args.span_rtol,
    )
    print(result.format())
    return 0 if result.ok else 1


def _cmd_status(args) -> int:
    """``status``: render the live-run registry of a telemetry dir."""
    from .observe import cmd_status

    return cmd_status(
        args.telemetry_dir,
        stale_after_s=args.stale_after,
        as_json=args.json,
        gc=args.gc,
    )


def _cmd_tail(args) -> int:
    """``tail``: follow one run's event stream with convergence deltas."""
    from .observe import cmd_tail

    return cmd_tail(
        args.target,
        run_id=args.run,
        once=args.once,
        interval_s=args.interval,
        timeout_s=args.timeout,
    )


def _cmd_trend(args) -> int:
    """``trend``: render the perf ledger; exit 1 on drift past rtol."""
    from ..telemetry.history import (
        HISTORY_DIR,
        check_trend,
        list_benches,
        load_history,
        render_trend,
    )

    history_dir = args.history if args.history else HISTORY_DIR
    benches = args.benches or list_benches(history_dir)
    if not benches:
        print(f"no benchmark history under {history_dir}")
        return 0
    failed = False
    for bench in benches:
        records = load_history(bench, history_dir)
        if not records and args.benches:
            # An explicitly named bench with no ledger is a typo or a
            # wiring failure, not a clean pass.
            print(f"trend: no history for bench {bench!r} "
                  f"under {history_dir}")
            failed = True
            continue
        print(render_trend(records, rtol=args.rtol))
        print()
        if check_trend(records, rtol=args.rtol):
            failed = True
    return 1 if failed else 0


def _subcommand_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Telemetry toolchain: instrumented runs, reports, "
        "run-vs-run regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one instrumented placement run")
    run_p.add_argument("--design", required=True, help="suite design name")
    run_p.add_argument("--mode", choices=MODES, default="ours")
    run_p.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write manifest.json + events.jsonl under DIR/<run_id>/",
    )
    run_p.add_argument(
        "--run-id",
        default=None,
        help="explicit run id (default: <design>_<mode>_<timestamp>...)",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--max-iters", type=int, default=600)
    run_p.add_argument("--profile", action="store_true")
    run_p.add_argument("--checkpoint-every", type=int, default=0, metavar="N")
    run_p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="checkpoint file to restart from (with --telemetry pointing "
        "at the original run directory, its event stream is continued)",
    )
    run_p.add_argument(
        "--rsmt-period",
        type=int,
        default=None,
        metavar="N",
        help="rebuild the full Steiner forest every N iterations "
        "(default: the timing objective's built-in period)",
    )
    run_p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="export the run's span tree as Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser(
        "suite", help="designs x modes x seeds matrix, optionally parallel"
    )
    suite_p.add_argument(
        "--designs", nargs="*", default=None, help="suite design names "
        "(default: all 8)"
    )
    suite_p.add_argument(
        "--modes", nargs="*", choices=MODES, default=["ours"],
    )
    suite_p.add_argument("--seeds", nargs="*", type=int, default=[0])
    suite_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (results are identical to --jobs 1)",
    )
    suite_p.add_argument("--max-iters", type=int, default=600)
    suite_p.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="per-run telemetry under DIR plus a merged suite_manifest.json",
    )
    suite_p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write deterministic final metrics JSON (no wall-clock "
        "fields; byte-identical across --jobs settings)",
    )
    suite_p.add_argument(
        "--no-design-cache",
        action="store_true",
        help="regenerate designs per task instead of using the bundle "
        "cache (legacy cold path; metrics are identical either way)",
    )
    suite_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="design-bundle cache location (default "
        "benchmarks/.design_cache, or $REPRO_DESIGN_CACHE)",
    )
    suite_p.add_argument("--rsmt-period", type=int, default=None, metavar="N")
    suite_p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout under supervision; a worker "
        "exceeding it is killed and the task retried (default: none)",
    )
    suite_p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per task before quarantine (default 2; the suite "
        "completes either way, quarantined tasks are recorded in the "
        "suite manifest)",
    )
    suite_p.add_argument(
        "--no-supervise",
        action="store_true",
        help="legacy bare process-pool fan-out: no timeouts, retries or "
        "crash isolation; the first failure aborts the suite (completed "
        "runs are still salvaged into a partial manifest)",
    )
    suite_p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="export every run's span tree plus the suite-merged "
        "aggregate as Chrome trace_event JSON (one track per run)",
    )
    suite_p.set_defaults(func=_cmd_suite)

    status_p = sub.add_parser(
        "status", help="show live/stale/dead runs from the registry"
    )
    status_p.add_argument(
        "telemetry_dir", help="telemetry directory holding the registry"
    )
    status_p.add_argument(
        "--stale-after",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="heartbeat age past which a live pid counts as stale "
        "(default 15)",
    )
    status_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    status_p.add_argument(
        "--gc",
        action="store_true",
        help="also remove records whose pid no longer exists",
    )
    status_p.set_defaults(func=_cmd_status)

    tail_p = sub.add_parser(
        "tail", help="follow a run's event stream with convergence deltas"
    )
    tail_p.add_argument(
        "target",
        help="run directory, events.jsonl path, or telemetry dir "
        "(with --run)",
    )
    tail_p.add_argument(
        "--run", default=None, metavar="RUN_ID",
        help="run id inside a telemetry directory",
    )
    tail_p.add_argument(
        "--once",
        action="store_true",
        help="parse the stream as it is now and exit (CI mode; torn "
        "trailing records are counted, not fatal)",
    )
    tail_p.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )
    tail_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="stop following after this long even without run_end",
    )
    tail_p.set_defaults(func=_cmd_tail)

    trend_p = sub.add_parser(
        "trend", help="render the perf ledger; nonzero exit on drift"
    )
    trend_p.add_argument(
        "benches", nargs="*", default=None,
        help="bench names (default: every ledger under --history)",
    )
    trend_p.add_argument(
        "--history",
        default=None,
        metavar="DIR",
        help="ledger directory (default benchmarks/history)",
    )
    trend_p.add_argument(
        "--rtol",
        type=float,
        default=0.1,
        metavar="FRAC",
        help="tolerated relative drift of the latest record vs the "
        "median of up to 5 prior records (default 0.1)",
    )
    trend_p.set_defaults(func=_cmd_trend)

    rep_p = sub.add_parser("report", help="render one run's telemetry")
    rep_p.add_argument("run_dir", help="telemetry run directory")
    rep_p.add_argument(
        "--out", default=None, help="output directory (default: run_dir)"
    )
    rep_p.set_defaults(func=_cmd_report)

    cmp_p = sub.add_parser(
        "compare", help="diff two runs; nonzero exit on regression"
    )
    cmp_p.add_argument("run_a", help="baseline run directory")
    cmp_p.add_argument("run_b", help="candidate run directory")
    cmp_p.add_argument(
        "--rtol",
        type=float,
        default=1e-6,
        help="relative tolerance on gated final metrics (default 1e-6)",
    )
    cmp_p.add_argument("--atol", type=float, default=1e-9)
    cmp_p.add_argument(
        "--span-rtol",
        type=float,
        default=None,
        help="also gate per-span wall time at this relative tolerance "
        "(default: span timing is informational)",
    )
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        args = _subcommand_parser().parse_args(argv)
        return args.func(args)
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the DAC 2022 differentiable-timing "
        "placement evaluation on the miniblue suite.",
    )
    parser.add_argument(
        "--full", action="store_true", help="run all 8 suite designs"
    )
    parser.add_argument(
        "--designs", nargs="*", default=None, help="explicit design names"
    )
    parser.add_argument(
        "--max-iters", type=int, default=600, help="placer iteration cap"
    )
    parser.add_argument(
        "--fig8", action="store_true", help="also collect Figure 8 curves"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-kernel wall-time breakdowns and dump them to "
        "benchmarks/results/profile_<design>_<mode>.txt",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run structural design validation on the selected designs and "
        "exit (non-zero when any design has errors); during placement "
        "runs, validation always happens before iteration 0",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="save a resumable placer checkpoint every N iterations to "
        "benchmarks/results/checkpoints/ (0 = off)",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="restart a single run from a checkpoint file (requires "
        "--designs with exactly one design; see --mode)",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="ours",
        help="placer mode for --resume (default: ours)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the Table 3 matrix across N worker processes "
        "(final metrics are identical to a serial run)",
    )
    args = parser.parse_args(argv)

    designs = args.designs
    if designs is None:
        if args.full or args.validate:
            from .suite import SUITE

            designs = [e.name for e in SUITE]
        else:
            designs = ["miniblue4", "miniblue16", "miniblue18"]

    if args.validate:
        return _run_validate(designs)
    if args.resume:
        return _run_resume(args.resume, args.designs, args.mode, args)

    print("Table 2 - benchmark statistics")
    print(format_table2())
    print()

    print("Table 3 - WNS/TNS/HPWL/runtime")
    result = run_table3(
        designs=designs,
        max_iters=args.max_iters,
        profile=args.profile,
        checkpoint_every=args.checkpoint_every,
        jobs=args.jobs,
    )
    print()
    print(format_table3(result))

    if args.fig8:
        print("\nFigure 8 - optimization curves (miniblue4)")
        data = run_fig8("miniblue4", max_iters=args.max_iters)
        print(format_fig8(data, step=20))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
