"""Command-line interface: ``python -m repro <command>``.

Design bundles::

    python -m repro generate --cells 800 --depth 14 --seed 1 --out DIR
    python -m repro place --bundle DIR --mode ours [--max-iters 600]
    python -m repro sta --bundle DIR [--hold] [--propagated-clock]

The paper's evaluation::

    python -m repro run --design miniblue1 --mode ours --telemetry out/
    python -m repro suite --designs miniblue4 miniblue18 --seeds 0 1 --jobs 2
    python -m repro table3 [--full] [--fig8] [--jobs N]  # Table 2 + Table 3
    python -m repro validate [--designs ...]             # design checks only

Telemetry::

    python -m repro report out/<run_id>       # markdown + curves
    python -m repro compare out/<a> out/<b>   # regression gate
    python -m repro status out/               # who is running right now
    python -m repro tail out/ --run <run_id>  # follow convergence
    python -m repro trend                     # perf-regression ledger gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .harness.runners import MODES


def _timing_summary(result) -> str:
    """Setup summary of an STA result and its five worst endpoints."""
    design, pins = result.graph.design, result.graph.endpoint_pins
    slack = result.endpoint_slack
    timed = slack[np.abs(slack) < 1e29]  # unreached endpoints hold +-1e30
    lines = [
        f"Timing report for {design.name}",
        f"  clock period : {design.constraints.clock_period:.1f} ps",
        f"  endpoints    : {len(timed)} ({int((timed < 0).sum())} violating)",
        f"  WNS / TNS    : {result.wns_setup:.1f} / {result.tns_setup:.1f} ps",
        "worst endpoints:",
    ]
    for k in np.argsort(slack)[:5]:
        name = design.pin_name[int(pins[k])]
        lines.append(f"  {name:<24} slack = {slack[k]:9.1f} ps")
    return "\n".join(lines)


def _cmd_generate(args) -> int:
    from .netlist import GeneratorSpec, generate_design, save_design

    spec = GeneratorSpec(
        name=args.name,
        n_cells=args.cells,
        depth=args.depth,
        seed=args.seed,
        utilization=args.utilization,
    )
    design = generate_design(spec)
    manifest = save_design(design, args.out)
    print(f"generated {design}")
    print(f"bundle written to {os.path.dirname(os.path.abspath(manifest))}")
    return 0


def _cmd_place(args) -> int:
    from .harness.runners import run_mode
    from .netlist import load_design_bundle, save_design
    from .place import PlacerOptions, legalize, max_overlap
    from .sta import run_sta

    design, _, _ = load_design_bundle(args.bundle)
    record = run_mode(
        design, args.mode, placer_options=PlacerOptions(max_iters=args.max_iters)
    )
    print(record.summary())
    x, y = record.x, record.y
    if not args.skip_legalize:
        x, y = legalize(design, x, y)
        assert max_overlap(design, x, y) < 1e-9
        print("legalized (no overlaps)")
    out = args.out if args.out else args.bundle
    save_design(design, out, x, y)
    print(f"placed bundle written to {out}")
    print()
    print(_timing_summary(run_sta(design, x, y)))
    return 0


def _cmd_sta(args) -> int:
    from .netlist import load_design_bundle
    from .sta import format_path, run_sta, worst_paths

    design, x, y = load_design_bundle(args.bundle)
    result = run_sta(
        design,
        x,
        y,
        compute_hold=args.hold,
        propagated_clock=args.propagated_clock,
        wire_delay_model=args.wire_model,
    )
    print(_timing_summary(result))
    if args.hold:
        print(
            f"\nhold: WNS = {result.wns_hold:.1f} ps, "
            f"TNS = {result.tns_hold:.1f} ps"
        )
    if result.clock is not None:
        print(f"clock skew (propagated): {result.clock.skew:.2f} ps")
    if args.paths:
        print()
        for path in worst_paths(result, args.paths):
            print(format_path(path))
            print()
    return 0


def _cmd_run(args) -> int:
    """``run``: one instrumented (design, mode) placement."""
    from .core.objective import TimingObjectiveOptions
    from .harness import load_design, run_mode
    from .place.placer import PlacerOptions

    record = run_mode(
        load_design(args.design),
        args.mode,
        placer_options=PlacerOptions(
            max_iters=args.max_iters,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
        ),
        timing_options=(
            None
            if args.rsmt_period is None
            else TimingObjectiveOptions(rsmt_period=args.rsmt_period)
        ),
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
    label = f"{record.design}/{record.mode}"
    if args.profile:
        from .perf import format_stats

        print(format_stats(record.spans, label))
    if args.trace_out:
        from .perf import write_chrome_trace

        write_chrome_trace(args.trace_out, record.timeline, [label])
        print(f"trace: {args.trace_out}")
    return 0


def _cmd_suite(args) -> int:
    """``suite``: designs x modes x seeds matrix, optionally parallel.

    Failures surface as one-line :class:`SupervisorError` summaries,
    never multi-process tracebacks.  Exits 2 on duplicate tasks, 1 when
    the supervisor failed or any task was quarantined - completed
    results are still written.
    """
    from .harness.suite import SUITE
    from .harness.supervisor import (
        DuplicateTaskError,
        SupervisorError,
        SupervisorOptions,
        SuiteTask,
        run_tasks,
        suite_metrics,
        write_suite_manifest,
    )

    designs = args.designs or [e.name for e in SUITE]
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
            args.jobs,
            options,
            use_cache=not args.no_design_cache,
            cache_dir=args.cache_dir,
            verbose=True,
        )
    except DuplicateTaskError as exc:
        print(f"suite: error: {exc}", file=sys.stderr)
        return 2
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
        from .perf import join_flows, write_chrome_trace

        traced = [(t, r) for t, r in zip(tasks, records) if r.timeline]
        write_chrome_trace(
            args.trace_out,
            join_flows([(rec.timeline, 0) for _, rec in traced]),
            [task.run_id for task, _ in traced],
        )
        print(f"trace: {args.trace_out}")
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


def _cmd_table3(args) -> int:
    """``table3``: Table 2, the Table 3 matrix, optionally Figure 8."""
    from .harness import (
        SUITE,
        SupervisorError,
        format_fig8,
        format_table2,
        format_table3,
        run_fig8,
        run_table3,
    )

    designs = args.designs
    if designs is None:
        designs = (
            [e.name for e in SUITE]
            if args.full
            else ["miniblue4", "miniblue16", "miniblue18"]
        )
    print("Table 2 - benchmark statistics")
    print(format_table2())
    print()
    print("Table 3 - WNS/TNS/HPWL/runtime")
    try:
        result = run_table3(
            designs=designs,
            max_iters=args.max_iters,
            profile=args.profile,
            checkpoint_every=args.checkpoint_every,
            jobs=args.jobs,
        )
    except SupervisorError as exc:
        print(exc.summary(), file=sys.stderr)
        return 1
    print()
    print(format_table3(result))
    if args.profile:
        from .perf import format_stats

        for design, runs in result.records.items():
            for mode, record in runs.items():
                print()
                print(format_stats(record.spans, f"{design}/{mode}"))
    if args.fig8:
        print("\nFigure 8 - optimization curves (miniblue4)")
        data = run_fig8("miniblue4", max_iters=args.max_iters)
        print(format_fig8(data, step=20))
    return 0


def _cmd_validate(args) -> int:
    """``validate``: structural design checks only, no placement."""
    from .harness import SUITE, load_design
    from .runtime import validate_design

    failed = 0
    for name in args.designs or [e.name for e in SUITE]:
        report = validate_design(load_design(name))
        print(report.format())
        if not report.ok:
            failed += 1
    return 1 if failed else 0


def _cmd_report(args) -> int:
    """``report``: render one telemetry run to markdown + SVG curves."""
    from .telemetry.report import render_report

    print(render_report(args.run_dir, out_dir=args.out))
    return 0


def _cmd_compare(args) -> int:
    """``compare``: gate run B against run A; exit 1 on regression."""
    from .telemetry.compare import compare_runs

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
    from .harness.observe import cmd_status

    return cmd_status(
        args.telemetry_dir,
        stale_after_s=args.stale_after,
        as_json=args.json,
        gc=args.gc,
    )


def _cmd_tail(args) -> int:
    """``tail``: follow one run's event stream with convergence deltas."""
    from .harness.observe import cmd_tail

    return cmd_tail(
        args.target,
        run_id=args.run,
        once=args.once,
        interval_s=args.interval,
        timeout_s=args.timeout,
    )


def _cmd_trend(args) -> int:
    """``trend``: render the perf ledger; exit 1 on drift past rtol."""
    from .telemetry.history import (
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


def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Differentiable-timing-driven global placement "
        "(DAC 2022 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic benchmark")
    p_gen.add_argument("--name", default="generated")
    p_gen.add_argument("--cells", type=int, default=800)
    p_gen.add_argument("--depth", type=int, default=14)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--utilization", type=float, default=0.7)
    p_gen.add_argument("--out", required=True, help="bundle directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_place = sub.add_parser("place", help="place a design bundle")
    p_place.add_argument("--bundle", required=True)
    p_place.add_argument("--mode", choices=MODES, default="ours")
    p_place.add_argument("--max-iters", type=int, default=600)
    p_place.add_argument("--skip-legalize", action="store_true")
    p_place.add_argument("--out", default=None, help="output bundle dir")
    p_place.set_defaults(func=_cmd_place)

    p_sta = sub.add_parser("sta", help="analyse a design bundle")
    p_sta.add_argument("--bundle", required=True)
    p_sta.add_argument("--hold", action="store_true")
    p_sta.add_argument("--propagated-clock", action="store_true")
    p_sta.add_argument(
        "--wire-model", choices=("elmore", "d2m"), default="elmore"
    )
    p_sta.add_argument("--paths", type=int, default=0, help="report K paths")
    p_sta.set_defaults(func=_cmd_sta)

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
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-layer calls / total / self / share-of-wall "
        "span table of the run",
    )
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
        help="export the run's spans as Chrome trace_event JSON on their "
        "real timeline (open in chrome://tracing or ui.perfetto.dev)",
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
        "cache (the cold path; metrics are identical either way)",
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
        help="per-task wall-clock timeout; a worker exceeding it is "
        "killed and the task retried (default: none)",
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
        "--trace-out",
        metavar="FILE",
        default=None,
        help="export every run's spans as Chrome trace_event JSON on "
        "their real timeline (one track per run)",
    )
    suite_p.set_defaults(func=_cmd_suite)

    t3_p = sub.add_parser(
        "table3", help="Table 2 + the Table 3 matrix (+ Figure 8)"
    )
    t3_p.add_argument(
        "--designs", nargs="*", default=None,
        help="explicit design names (default: miniblue4/16/18)",
    )
    t3_p.add_argument(
        "--full", action="store_true", help="run all 8 suite designs"
    )
    t3_p.add_argument(
        "--fig8", action="store_true", help="also collect Figure 8 curves"
    )
    t3_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the matrix across N worker processes (final metrics "
        "are identical to --jobs 1)",
    )
    t3_p.add_argument(
        "--max-iters", type=int, default=600, help="placer iteration cap"
    )
    t3_p.add_argument(
        "--profile",
        action="store_true",
        help="print each run's per-layer span table after Table 3",
    )
    t3_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="save a resumable placer checkpoint every N iterations to "
        "benchmarks/results/checkpoints/ (0 = off)",
    )
    t3_p.set_defaults(func=_cmd_table3)

    val_p = sub.add_parser(
        "validate",
        help="structural design checks, no placement (exit 1 on errors)",
    )
    val_p.add_argument(
        "--designs", nargs="*", default=None,
        help="suite design names (default: all 8)",
    )
    val_p.set_defaults(func=_cmd_validate)

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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
