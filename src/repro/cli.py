"""Command-line interface: ``repro-noc`` / ``python -m repro``.

Subcommands regenerate the paper's evaluation artefacts or schedule a
single benchmark and print its Gantt chart:

* ``repro-noc fig5`` / ``fig6`` — random-benchmark comparisons,
* ``repro-noc table1`` / ``table2`` / ``table3`` — multimedia tables,
* ``repro-noc fig7`` — the performance/energy trade-off sweep,
* ``repro-noc schedule --system encoder --clip foreman`` — one run,
  with Gantt output,
* ``repro-noc inspect --format chrome`` — schedule one benchmark and
  export its timeline as Chrome Trace Format for Perfetto, or per-PE /
  per-link analytics as text / JSON.

Every :class:`~repro.errors.ReproError` ends a run the same way, in
:func:`main`: one ``repro-noc: error: ...`` line on stderr, exit status
1 and, when the run ledger is on, a ``run_failed`` record.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import asdict
from typing import Any, Dict, Iterator, List, Optional

from repro import obs
from repro.arch.presets import mesh_2x2
from repro.core.eas import EASConfig
from repro.ctg.generator import generate_category
from repro.ctg.multimedia import CLIP_NAMES
from repro.errors import (
    InvalidArgumentError,
    LedgerError,
    ObservabilityError,
    ReproError,
    SchedulingError,
    SerializationError,
)
from repro.evalx.experiments import (
    run_fig7,
    run_msb_table,
    run_random_category,
)
from repro.evalx.reporting import format_figure, format_table
from repro.faults.plan import FAULT_KINDS
from repro.obs.heartbeat import Heartbeat, resolve_interval
from repro.obs.ledger import RunLedger, resolve_ledger_path
from repro.parallel.pool import resolve_jobs
from repro.parallel.spec import BenchmarkSpec, RunSpec, paper_benchmark, run_scheduler
from repro.schedule.gantt import render_gantt


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if getattr(args, "repair_starts", 1) > 1 and args.algorithm != "eas":
        parser.error(
            f"--repair-starts {args.repair_starts} runs the Step-3 repair portfolio, "
            f"which only --algorithm eas has (got {args.algorithm})"
        )
    # The one error boundary: any ReproError, from a handler or from the
    # ledger/trace plumbing around it, is a one-line exit 1.
    try:
        return _run(args, list(argv) if argv is not None else sys.argv[1:])
    except ReproError as exc:
        print(f"repro-noc: error: {exc}", file=sys.stderr)
        return 1


def _run(args, argv: List[str]) -> int:
    """Run the handler under the requested instrumentation.

    A ``ReproError`` the handler raises is recorded (tracer event,
    counter, ``run_failed`` ledger record) and re-raised for
    :func:`main` once the profile and trace are out.
    """
    trace_path = getattr(args, "trace", None)
    profile = bool(getattr(args, "profile", False))
    heartbeat_secs = resolve_interval(getattr(args, "heartbeat", None))
    ledger = _open_ledger(args)
    if ledger is None and not trace_path and not profile and not heartbeat_secs:
        # Uninstrumented path: the default null bundle stays active and
        # no trace/ledger I/O happens.
        return args.handler(args)

    # Heartbeat needs the open-span stack, so it implies a live tracer;
    # a ledger alone rides on the cheap disabled bundle (its per-run
    # metrics registry still snapshots counters for the terminal record).
    instrument = bool(trace_path or profile or heartbeat_secs)
    instrumentation = (
        obs.Instrumentation.enabled() if instrument else obs.Instrumentation.disabled()
    )
    instrumentation.ledger = ledger
    status = 0
    failure: Optional[ReproError] = None
    started = time.perf_counter()
    with obs.activate(instrumentation):
        if ledger is not None:
            ledger.run_started(
                command=args.command,
                argv=argv,
                params=_ledger_params(args),
                jobs=resolve_jobs(getattr(args, "jobs", None)),
            )
        monitor = (
            Heartbeat(heartbeat_secs, ledger=ledger) if heartbeat_secs else nullcontext()
        )
        # Under ``--trace -`` the trace JSONL owns stdout: route the
        # handler's normal output (tables, Gantt charts) to stderr so
        # stdout stays machine-parseable.  Progress and heartbeat lines
        # already target stderr unconditionally.
        output = redirect_stdout(sys.stderr) if trace_path == "-" else nullcontext()
        try:
            with monitor, instrumentation.tracer.span("cli", command=args.command):
                with output:
                    try:
                        status = args.handler(args)
                    except ReproError as exc:
                        instrumentation.tracer.event(
                            "scheduling_error", command=args.command, error=str(exc)
                        )
                        instrumentation.metrics.counter("cli.scheduling_errors").inc()
                        if ledger is not None:
                            # The failure record carries the traceback and
                            # the partial counter snapshot at death — the
                            # postmortem the one-line stderr error elides.
                            ledger.run_failed(
                                exc, metrics=instrumentation.metrics.counter_values()
                            )
                        failure = exc
        except BaseException as exc:
            if ledger is not None and not ledger.closed:
                ledger.run_failed(exc, metrics=instrumentation.metrics.counter_values())
            raise
        if ledger is not None and not ledger.closed:
            ledger.run_finished(
                status=status,
                wall_seconds=time.perf_counter() - started,
                metrics=instrumentation.metrics.counter_values(),
                top_phases=_top_phases(instrumentation),
            )
    if profile:
        print(obs.export.format_profile(instrumentation), file=sys.stderr)
    if trace_path:
        meta = {"command": args.command, "argv": argv}
        try:
            records = obs.export.write_trace(trace_path, instrumentation, meta=meta)
        except OSError as exc:
            trace_error = ObservabilityError(f"cannot write trace: {exc}")
            if failure is None:
                raise trace_error from exc
            # Keep the handler's error: report the trace on its own line.
            print(f"repro-noc: error: {trace_error}", file=sys.stderr)
        else:
            print(f"trace: {records} records -> {trace_path}", file=sys.stderr)
    if failure is not None:
        raise failure
    return status


def _open_ledger(args) -> Optional[RunLedger]:
    """The run ledger this invocation records to, or None when off.

    An explicitly requested path (``--ledger FILE``) must be writable —
    a typo'd directory is a user error, not something to degrade around.
    """
    override = getattr(args, "ledger", None)
    path = resolve_ledger_path(override)
    if path is None:
        return None
    ledger = RunLedger(path)
    if override:
        ledger.ensure_writable()
    return ledger


def _ledger_params(args) -> Dict[str, Any]:
    """The resolved invocation parameters a ``run_started`` record keeps.

    Everything argparse resolved (seeds, preset names, clip, jobs, ...)
    that serialises as JSON, plus the effective EAS configuration — the
    provenance needed to reconstruct the run from the ledger alone.
    """
    params: Dict[str, Any] = {}
    for key, value in vars(args).items():
        if key == "handler":
            continue
        if value is None or isinstance(value, (bool, int, float, str)):
            params[key] = value
        elif isinstance(value, (list, tuple)):
            params[key] = list(value)
    params["eas_config"] = asdict(EASConfig())
    return params


def _top_phases(instrumentation, limit: int = 10) -> List[Dict[str, Any]]:
    """Slowest span names by self-time, for the terminal ledger record."""
    aggregated = obs.export.aggregate_self_times(instrumentation)
    ranked = sorted(aggregated.items(), key=lambda item: (-item[1][2], item[0]))
    return [
        {
            "name": name,
            "count": count,
            "total_seconds": round(total, 6),
            "self_seconds": round(self_s, 6),
        }
        for name, (count, total, self_s) in ranked[:limit]
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description="Reproduce Hu & Marculescu (DATE 2004): EAS for NoCs.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    for fig, category in (("fig5", 1), ("fig6", 2)):
        p = sub.add_parser(fig, help=f"random category-{'I' * category} comparison")
        p.add_argument("--n-tasks", type=int, default=None, help="tasks per graph (default 150; paper 500)")
        p.add_argument("--benchmarks", type=int, default=10, help="number of random graphs")
        p.set_defaults(handler=_handle_random, category=category, figure=fig)

    for table, system in (("table1", "encoder"), ("table2", "decoder"), ("table3", "integrated")):
        p = sub.add_parser(table, help=f"multimedia {system} table")
        p.set_defaults(handler=_handle_msb, system=system, table=table)

    p = sub.add_parser("fig7", help="performance/energy trade-off sweep")
    p.add_argument("--clip", default="foreman", choices=CLIP_NAMES)
    p.add_argument("--max-ratio", type=float, default=1.6)
    p.add_argument("--steps", type=int, default=7)
    p.set_defaults(handler=_handle_fig7)

    p = sub.add_parser("schedule", help="schedule one benchmark and show the Gantt chart")
    _add_benchmark_arguments(p)
    p.add_argument("--links", action="store_true", help="include link rows in the Gantt chart")
    p.add_argument("--save", metavar="FILE", help="write the schedule as JSON")
    p.add_argument("--svg", metavar="FILE", help="write an SVG Gantt chart")
    p.add_argument("--svg-platform", metavar="FILE", help="write an SVG platform/mapping view")
    p.set_defaults(handler=_handle_schedule)

    p = sub.add_parser(
        "inspect",
        help="schedule one benchmark and export its timeline / resource analytics",
    )
    _add_benchmark_arguments(p)
    p.add_argument(
        "--format",
        default="text",
        choices=["chrome", "json", "text"],
        help="chrome = Chrome Trace Format for Perfetto/chrome://tracing, "
        "json = analytics report, text = human-readable report",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default="-",
        help="output path ('-' = stdout, the default)",
    )
    p.add_argument(
        "--idle-links",
        action="store_true",
        help="chrome format: render a lane for every topology link, even unused ones",
    )
    p.set_defaults(handler=_handle_inspect)

    p = sub.add_parser("compare", help="EAS vs EDF decomposition on one benchmark")
    p.add_argument("--system", default="encoder", choices=["encoder", "decoder", "integrated"])
    p.add_argument("--clip", default="foreman", choices=CLIP_NAMES)
    p.set_defaults(handler=_handle_comparison)

    p = sub.add_parser("optimal", help="exact optimum vs EAS/EDF on a tiny random graph")
    p.add_argument("--n-tasks", type=int, default=7, help="graph size (<= 12)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_handle_optimal)

    p = sub.add_parser("export-ctg", help="generate a random CTG and write it as JSON")
    p.add_argument("output", help="output file path")
    p.add_argument("--category", type=int, default=1, choices=[1, 2])
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--n-tasks", type=int, default=100)
    p.set_defaults(handler=_handle_export_ctg)

    p = sub.add_parser(
        "report",
        help="trend & postmortem report from BENCH_* histories and the run ledger",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "json"],
        help="output rendering (json is machine-parseable)",
    )
    p.add_argument(
        "--bench-dir",
        metavar="DIR",
        default=None,
        help="directory holding BENCH_*.json histories "
        "(default: REPRO_BENCH_DIR env, else the repository root)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="regression flag threshold as a fraction "
        "(default 0.10, the --bench-check gate)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=10,
        help="max entries per bounded section (failures, phases, cells)",
    )
    p.add_argument(
        "--prune-ledger",
        type=int,
        default=None,
        metavar="N",
        help="rotate the run ledger first: keep only the last N runs "
        "(atomic rewrite under the benchstore lockfile)",
    )
    p.set_defaults(handler=_handle_report)

    p = sub.add_parser(
        "explain",
        help="schedule one benchmark and explain it: critical path, "
        "per-task F(i,k) decision breakdowns, energy attribution",
    )
    _add_benchmark_arguments(p)
    p.add_argument(
        "--task",
        default=None,
        metavar="NAME",
        help="focus on one task: anchor the critical path at it and "
        "explain only its placement decision",
    )
    p.add_argument(
        "--load",
        metavar="FILE",
        default=None,
        help="explain a saved schedule JSON (from `schedule --save`) "
        "instead of scheduling; the benchmark flags must still name the "
        "same CTG/platform",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "json"],
        help="output rendering",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default="-",
        help="output path ('-' = stdout, the default)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="independently recompute every recorded F(i,k) component "
        "on fresh resource tables and fail on any mismatch",
    )
    p.set_defaults(handler=_handle_explain)

    p = sub.add_parser(
        "diff",
        help="differential diagnostics between two schedules of the same "
        "benchmark: placement moves (root-cause vs cascade), exact "
        "energy/tardiness attribution deltas, ledger telemetry deltas",
    )
    p.add_argument(
        "a",
        help="first endpoint: a saved schedule JSON, `run:<ledger-run-id>`, "
        "or a spec string like `algorithm=edf,index=2` overriding the "
        "benchmark flags",
    )
    p.add_argument(
        "b",
        help="second endpoint (same forms as the first)",
    )
    _add_benchmark_arguments(p)
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "json"],
        help="output rendering",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default="-",
        help="output path ('-' = stdout, the default)",
    )
    p.set_defaults(handler=_handle_diff)

    p = sub.add_parser(
        "validate",
        help="validate a saved schedule: structural consistency plus "
        "flit-level transaction-abstraction replay; one-line PASS/FAIL",
    )
    p.add_argument("schedule", help="schedule JSON (from `schedule --save` or `faults inject --save`)")
    _add_benchmark_arguments(p)
    p.add_argument(
        "--slack-hops-factor",
        type=float,
        default=4.0,
        help="allowed flit-level lateness per hop, in cycle times "
        "(the transaction-abstraction slack bound)",
    )
    p.set_defaults(handler=_handle_validate)

    # Fault injection & degraded-mode recovery.  A two-level command:
    # observability flags live on the *nested* parsers only — argparse
    # re-applies a nested subparser's defaults after the parent parses,
    # so duplicating the flags on both levels would clobber parent-
    # parsed values with nested defaults.
    p = sub.add_parser(
        "faults",
        help="fault injection & degraded-mode recovery "
        "(see `faults inject` / `faults sweep`)",
    )
    p.set_defaults(handler=_handle_faults_help, faults_parser=p, ledger="off")
    fsub = p.add_subparsers(dest="faults_command")

    fp = fsub.add_parser(
        "inject",
        help="inject one fault plan into a committed schedule and "
        "recover: salvage the completed prefix, reschedule survivors "
        "over the degraded platform, report exact deltas",
    )
    _add_benchmark_arguments(fp)
    fp.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        help="fault-plan JSON to inject (default: generate one from "
        "--fault-seed/--kind against the committed makespan)",
    )
    fp.add_argument("--fault-seed", type=int, default=0, help="plan-generation seed")
    fp.add_argument(
        "--kind",
        default="pe",
        choices=list(FAULT_KINDS),
        help="generated fault kind (ignored with --plan)",
    )
    fp.add_argument(
        "--simulate",
        action="store_true",
        help="confirm the recovery's post-fault transactions at flit "
        "level (wormhole replay under the plan's transient windows)",
    )
    fp.add_argument("--save", metavar="FILE", help="write the recovery schedule as JSON")
    fp.add_argument("--save-plan", metavar="FILE", help="write the injected plan as JSON")
    fp.set_defaults(handler=_handle_faults_inject)
    _add_observability_arguments(fp)

    fp = fsub.add_parser(
        "sweep",
        help="seeded Monte Carlo fault campaign: schedule once, inject "
        "N plans (pe/link/transient round-robin), report survivability",
    )
    _add_benchmark_arguments(fp)
    fp.add_argument("--plans", type=int, default=20, help="number of fault plans")
    fp.add_argument("--fault-seed", type=int, default=0, help="campaign seed")
    fp.add_argument(
        "--kinds",
        default=",".join(FAULT_KINDS),
        help="comma-separated fault kinds to rotate through",
    )
    fp.add_argument(
        "--format", default="text", choices=["text", "json"], help="output rendering"
    )
    fp.add_argument(
        "--out", metavar="FILE", default="-", help="output path ('-' = stdout, the default)"
    )
    _add_jobs_argument(fp)
    fp.set_defaults(handler=_handle_faults_sweep)
    _add_observability_arguments(fp)

    # Parallel execution, on the subcommands that run whole grids (the
    # evalx figures/tables) or repair portfolios (schedule).
    for name in ("fig5", "fig6", "table1", "table2", "table3", "schedule", "diff"):
        _add_jobs_argument(sub.choices[name])
    sub.choices["schedule"].add_argument(
        "--repair-starts",
        type=_portfolio_size,
        default=1,
        metavar="K",
        help="multi-start repair portfolio: K seeded LTS/GTM orderings "
        "(start 0 is the paper-literal ordering), best feasible lowest-energy "
        "schedule wins; runs across --jobs workers (--algorithm eas only)",
    )

    # Observability flags, available on every subcommand.  ``faults`` is
    # skipped: its nested subparsers carry the flags themselves (see the
    # defaults-clobbering note at its definition).
    for name, subparser in sub.choices.items():
        if name == "faults":
            continue
        _add_observability_arguments(subparser)

    return parser


def _portfolio_size(text: str) -> int:
    """``--repair-starts`` K: an integer >= 1 (1 = plain scheduler)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"K must be >= 1, got {value}")
    return value


def _add_jobs_argument(subparser) -> None:
    subparser.add_argument_group("parallel execution").add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: REPRO_JOBS env, else 1 = in-process; "
        "negative = all CPUs)",
    )


def _add_observability_arguments(subparser) -> None:
    group = subparser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace (spans, events, decisions, counters)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print a phase-timing + counter summary to stderr",
    )
    group.add_argument(
        "--ledger",
        metavar="FILE",
        default=None,
        help="append this run's lifecycle to a JSONL run ledger "
        "(default: REPRO_LEDGER env, else RUN_LEDGER.jsonl in the "
        "repository root; 'off' disables)",
    )
    group.add_argument(
        "--heartbeat",
        type=float,
        metavar="SECS",
        default=None,
        help="emit a one-line stderr progress heartbeat (cells "
        "done/total, ETA, current phase) every SECS seconds, with a "
        "stall watchdog; also recorded in the run ledger "
        "(default: REPRO_HEARTBEAT env, else off)",
    )


def _handle_random(args) -> int:
    rows = run_random_category(
        args.category,
        n_benchmarks=args.benchmarks,
        n_tasks=args.n_tasks,
        progress=lambda msg: print("  ..", msg, file=sys.stderr),
        jobs=args.jobs,
    )
    print(
        format_table(
            rows,
            f"{args.figure.upper()}: category {'I' * args.category} random benchmarks "
            f"(4x4 heterogeneous mesh)",
        )
    )
    return 0


def _handle_msb(args) -> int:
    rows = run_msb_table(args.system, jobs=args.jobs)
    print(
        format_table(
            rows,
            f"{args.table.upper()}: A/V {args.system} (EAS vs EDF)",
            extra_columns=("eas:comp", "eas:comm", "eas:hops", "edf:hops"),
        )
    )
    return 0


def _handle_fig7(args) -> int:
    steps = max(2, args.steps)
    ratios = [
        1.0 + (args.max_ratio - 1.0) * i / (steps - 1) for i in range(steps)
    ]
    figure = run_fig7(ratios=ratios, clip=args.clip)
    print(format_figure(figure, f"FIG7: energy vs performance ratio ({args.clip})"))
    return 0


def _add_benchmark_arguments(p) -> None:
    """Benchmark-selection flags shared by ``schedule`` and ``inspect``."""
    p.add_argument("--system", default="encoder", choices=["encoder", "decoder", "integrated", "random"])
    p.add_argument("--clip", default="foreman", choices=CLIP_NAMES)
    p.add_argument("--algorithm", default="eas", choices=["eas", "eas-base", "edf"])
    p.add_argument("--category", type=int, default=1, choices=[1, 2], help="random category")
    p.add_argument("--index", type=int, default=0, help="random benchmark index")
    p.add_argument("--n-tasks", type=int, default=60, help="random benchmark size")
    p.add_argument("--dvs", action="store_true", help="apply the DVS slack-reclamation post-pass")


def _benchmark_spec(args) -> BenchmarkSpec:
    """The paper benchmark the shared selection flags name."""
    return paper_benchmark(args.system, args.clip, args.category, args.index, args.n_tasks)


def _run_selected_scheduler(args, ctg, acg, report_dvs: bool = True):
    repair_starts = getattr(args, "repair_starts", 1)
    if repair_starts > 1:
        # Multi-start portfolio (``main`` admits K > 1 for eas only) as
        # EAS's Step 3: race K seeded LTS/GTM repair orderings (in
        # parallel under --jobs) and keep the best feasible,
        # lowest-energy result.
        from repro.core.eas import eas_schedule
        from repro.core.repair import multistart_search_and_repair

        portfolios = []

        def portfolio_repair(base, config, prefix):
            best, portfolio = multistart_search_and_repair(
                base, starts=repair_starts, jobs=getattr(args, "jobs", None), config=config
            )
            portfolios.append(portfolio)
            return best, portfolio

        schedule = eas_schedule(ctg, acg, repair=portfolio_repair)
        for portfolio in portfolios:
            print(portfolio.describe(), file=sys.stderr)
    else:
        schedule = run_scheduler(args.algorithm, ctg, acg)
    if args.dvs:
        from repro.core.dvs import apply_dvs

        schedule, report = apply_dvs(schedule)
        if report_dvs:
            print(
                f"DVS: scaled {report.tasks_scaled} tasks, "
                f"saved {report.savings_pct:.1f}% energy"
            )
    return schedule


def _handle_schedule(args) -> int:
    ctg, acg = _benchmark_spec(args).build()
    schedule = _run_selected_scheduler(args, ctg, acg)
    print(schedule.summary())
    print(render_gantt(schedule, include_links=args.links))
    if args.save:
        from repro.schedule.serialization import schedule_to_json

        _write_file(args.save, schedule_to_json(schedule))
        print(f"schedule written to {args.save}")
    if args.svg:
        from repro.schedule.svg import render_schedule_svg

        _write_file(args.svg, render_schedule_svg(schedule))
        print(f"SVG Gantt written to {args.svg}")
    if args.svg_platform:
        from repro.schedule.svg import render_platform_svg

        _write_file(args.svg_platform, render_platform_svg(schedule))
        print(f"SVG platform view written to {args.svg_platform}")
    return 0


@contextmanager
def _recording() -> Iterator[obs.Instrumentation]:
    """The active bundle if it records, else a fresh recording one.

    ``inspect`` timelines want scheduler spans and ``explain`` wants
    decision provenance even without ``--trace``/``--profile``.
    """
    instrumentation = obs.get()
    if instrumentation.recording:
        yield instrumentation
        return
    instrumentation = obs.Instrumentation.enabled()
    with obs.activate(instrumentation):
        yield instrumentation


def _handle_inspect(args) -> int:
    import json as _json

    from repro.core.slack import compute_budgets

    ctg, acg = _benchmark_spec(args).build()
    with _recording() as instrumentation:
        schedule = _run_selected_scheduler(args, ctg, acg, report_dvs=False)
        budgets = compute_budgets(ctg, acg)
    report = obs.analyze_schedule(schedule, budgets=budgets)
    report.register(obs.get().metrics)

    if args.format == "chrome":
        document = obs.timeline.chrome_trace(
            schedule, tracer=instrumentation.tracer, include_idle_links=args.idle_links
        )
        payload = _json.dumps(document, indent=1, allow_nan=False) + "\n"
        summary = (
            f"inspect: {len(document['traceEvents'])} trace events "
            f"({schedule.summary()})"
        )
    elif args.format == "json":
        payload = _json.dumps(report.to_dict(), indent=1) + "\n"
        summary = f"inspect: analytics report ({schedule.summary()})"
    else:
        payload = schedule.summary() + "\n\n" + report.format_text() + "\n"
        summary = f"inspect: report ({schedule.summary()})"
    return _write_payload(args, payload, summary)


def _handle_comparison(args) -> int:
    from repro.evalx.analysis import compare_schedules, utilization_table

    ctg, acg = paper_benchmark(args.system, args.clip).build()
    eas = run_scheduler("eas", ctg, acg)
    edf = run_scheduler("edf", ctg, acg)
    print(compare_schedules(eas, edf).describe())
    print()
    print(utilization_table(eas))
    print()
    print(utilization_table(edf))
    return 0


def _handle_optimal(args) -> int:
    from repro.baselines.optimal import optimal_schedule
    from repro.ctg.generator import GeneratorConfig, generate_ctg

    ctg = generate_ctg(
        GeneratorConfig(
            n_tasks=args.n_tasks, seed=args.seed, deadline_laxity=1.9, level_width=3.0
        )
    )
    acg = mesh_2x2()
    exact = optimal_schedule(ctg, acg)
    eas = run_scheduler("eas", ctg, acg)
    edf = run_scheduler("edf", ctg, acg)
    if not exact.feasible:
        print(f"{ctg.name}: no deadline-feasible mapping exists")
        return 1
    print(
        f"{ctg.name}: optimal {exact.energy:.4g} nJ "
        f"({exact.mappings_timed} mappings timed)"
    )
    print(f"  EAS {eas.total_energy():.4g} nJ (x{eas.total_energy() / exact.energy:.3f})")
    print(f"  EDF {edf.total_energy():.4g} nJ (x{edf.total_energy() / exact.energy:.3f})")
    return 0


def _handle_report(args) -> int:
    from repro.obs.benchstore import DEFAULT_THRESHOLD
    from repro.obs.report import build_report, format_report

    ledger_path = resolve_ledger_path(getattr(args, "ledger", None))
    if args.prune_ledger is not None:
        if ledger_path is None:
            raise LedgerError("no run ledger to prune")
        from repro.obs.ledger import prune_ledger

        active_run = obs.get().ledger
        pruned = prune_ledger(
            ledger_path,
            args.prune_ledger,
            preserve=[active_run.run_id] if active_run is not None else [],
        )
        print(
            f"ledger pruned: kept {pruned['runs_kept']}/{pruned['runs_before']} runs "
            f"({pruned['records_kept']}/{pruned['records_before']} records)",
            file=sys.stderr,
        )
    active = obs.get().ledger
    report = build_report(
        bench_dir=args.bench_dir,
        ledger_path=ledger_path,
        threshold=args.threshold if args.threshold is not None else DEFAULT_THRESHOLD,
        limit=args.limit,
        exclude_run_id=active.run_id if active is not None else None,
    )
    print(format_report(report, args.format))
    return 0


def _write_payload(args, payload: str, summary: str) -> int:
    """Write ``payload`` to ``args.out`` ('-' = stdout), report on stderr."""
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        _write_file(args.out, payload)
        print(f"{summary} -> {args.out}", file=sys.stderr)
    return 0


def _read_file(path: str) -> str:
    """The text of an input file; an unreadable path is a SerializationError."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    """Write an output file; an unwritable path is a SerializationError."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc


def _load_schedule(path: str, ctg, acg):
    """A saved schedule of the benchmark the flags name."""
    from repro.schedule.serialization import schedule_from_json

    try:
        with open(path) as handle:
            return schedule_from_json(handle.read(), ctg, acg)
    except (OSError, SerializationError) as exc:
        raise SerializationError(f"cannot load {path}: {exc}") from exc


def _handle_explain(args) -> int:
    from repro.obs.explain import (
        explain_schedule,
        format_explain,
        verify_decision_components,
    )

    ctg, acg = _benchmark_spec(args).build()
    if args.load:
        schedule = _load_schedule(args.load, ctg, acg)
    else:
        with _recording():
            schedule = _run_selected_scheduler(args, ctg, acg, report_dvs=False)

    if args.verify:
        if not schedule.provenance:
            raise SerializationError(
                "no decision provenance to verify "
                "(the loaded schedule predates format v2?)"
            )
        mismatches = verify_decision_components(ctg, acg, schedule.provenance)
        if mismatches:
            for line in mismatches:
                print(f"verify: MISMATCH {line}", file=sys.stderr)
            return 1
        print(
            f"verify: all F(i,k) components exact "
            f"({len(schedule.provenance)} decisions)",
            file=sys.stderr,
        )

    report = explain_schedule(schedule, focus=args.task)
    payload = format_explain(report, args.format)
    if not payload.endswith("\n"):
        payload += "\n"
    return _write_payload(args, payload, f"explain: {schedule.summary()}")


def _resolve_diff_endpoint(token: str, args):
    """One diff endpoint -> ('file', path) | ('run', run_id) | ('spec', RunSpec).

    A token naming an existing file is a saved schedule; ``run:<id>`` (or
    a bare id present in the ledger) rebuilds the benchmark from that
    run's recorded parameters; anything else parses as a
    ``key=value,...`` spec string overriding the benchmark flags.
    """
    import os as _os

    from repro.obs.ledger import group_runs, read_ledger

    if _os.path.exists(token):
        return ("file", token)
    run_id = token[len("run:") :] if token.startswith("run:") else None
    if run_id is None:
        ledger_path = resolve_ledger_path(getattr(args, "ledger", None))
        if ledger_path is not None and "=" not in token:
            if token in group_runs(read_ledger(ledger_path)):
                run_id = token
    if run_id is not None:
        return ("run", run_id)
    return ("spec", _parse_endpoint_spec(token, args))


#: the flags a diff endpoint (spec string or ledger params) can override.
_ENDPOINT_KEYS = ("algorithm", "system", "clip", "category", "index", "n_tasks")


def _parse_endpoint_spec(token: str, args, params: Optional[Dict[str, Any]] = None):
    """A ``key=value,...`` spec string (or ledger params) -> RunSpec."""
    fields: Dict[str, Any] = {key: getattr(args, key) for key in _ENDPOINT_KEYS}
    if params is not None:
        for key in _ENDPOINT_KEYS:
            if params.get(key) is not None:
                fields[key] = params[key]
    elif token:
        for part in token.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise InvalidArgumentError(
                    f"diff endpoint {token!r}: expected key=value, got {part!r}"
                )
            key, value = (s.strip() for s in part.split("=", 1))
            if key in ("category", "index", "n_tasks"):
                try:
                    fields[key] = int(value)
                except ValueError as exc:
                    raise InvalidArgumentError(str(exc)) from exc
            elif key in ("algorithm", "system", "clip"):
                fields[key] = value
            else:
                raise InvalidArgumentError(f"diff endpoint {token!r}: unknown key {key!r}")
    scheduler = fields.pop("algorithm")
    return RunSpec(
        scheduler=scheduler,
        benchmark=paper_benchmark(**fields),
        tag=token or "default",
    )


def _handle_diff(args) -> int:
    from repro.evalx.experiments import schedules_for_specs
    from repro.obs.diff import diff_schedules, format_diff, run_delta
    from repro.obs.ledger import read_ledger

    resolved = [_resolve_diff_endpoint(tok, args) for tok in (args.a, args.b)]

    ledger_records = None
    run_ids: List[Optional[str]] = [None, None]
    if any(kind == "run" for kind, _ in resolved):
        ledger_path = resolve_ledger_path(getattr(args, "ledger", None))
        ledger_records = read_ledger(ledger_path) if ledger_path is not None else []

    # Turn run endpoints into specs from their recorded parameters.
    endpoints: List[Any] = []
    for position, (kind, value) in enumerate(resolved):
        if kind == "run":
            started = next(
                (
                    r
                    for r in ledger_records or []
                    if r.get("type") == "run_started" and r.get("run_id") == value
                ),
                None,
            )
            if started is None:
                raise LedgerError(f"run {value!r} has no run_started record in the ledger")
            params = started.get("params") or {}
            if "algorithm" not in params:
                raise LedgerError(
                    f"run {value!r} (command {started.get('command')!r}) does not describe "
                    "a single schedule; diff `schedule`/`inspect`/`explain` runs"
                )
            run_ids[position] = value
            endpoints.append(("spec", _parse_endpoint_spec("", args, params=params)))
        else:
            endpoints.append((kind, value))

    specs = [value for kind, value in endpoints if kind == "spec"]
    computed = iter(
        schedules_for_specs(specs, jobs=getattr(args, "jobs", None)) if specs else []
    )
    schedules = []
    for kind, value in endpoints:
        if kind == "file":
            schedules.append(_load_schedule(value, *_benchmark_spec(args).build()))
        else:
            schedules.append(next(computed))

    diff = diff_schedules(schedules[0], schedules[1], label_a=args.a, label_b=args.b)

    runs = None
    if run_ids[0] is not None and run_ids[1] is not None:
        per_run = {run_id: [] for run_id in run_ids}
        for record in ledger_records or []:
            if record.get("run_id") in per_run:
                per_run[record["run_id"]].append(record)
        runs = run_delta(
            run_ids[0], per_run[run_ids[0]], run_ids[1], per_run[run_ids[1]]
        )

    payload = format_diff(diff, args.format, runs=runs)
    if not payload.endswith("\n"):
        payload += "\n"
    return _write_payload(
        args,
        payload,
        f"diff: {len(diff.moves)} moves, {len(diff.root_causes())} root-cause",
    )


def _handle_validate(args) -> int:
    from repro.errors import ScheduleValidationError
    from repro.schedule.serialization import schedule_from_json
    from repro.sim.wormhole import validate_transaction_abstraction

    ctg, acg = _benchmark_spec(args).build()
    # A verdict, not an error: every failure is one FAIL line on stdout.
    try:
        schedule = schedule_from_json(_read_file(args.schedule), ctg, acg)
        schedule.validate_consistency()
        validate_transaction_abstraction(
            schedule, slack_hops_factor=args.slack_hops_factor
        )
    except (ScheduleValidationError, SchedulingError, SerializationError) as exc:
        print(f"validate: FAIL: {exc}")
        return 1
    print(
        f"validate: PASS: {args.schedule} ({schedule.ctg.n_tasks} tasks, "
        f"{len(schedule.comm_placements)} transactions, flit-level delivery confirmed)"
    )
    return 0


def _handle_faults_help(args) -> int:
    args.faults_parser.print_help()
    return 2


def _handle_faults_inject(args) -> int:
    from repro.faults.plan import FaultPlan, generate_fault_plans
    from repro.faults.recovery import inject_and_recover
    from repro.schedule.serialization import schedule_to_json
    from repro.sim.wormhole import validate_transaction_abstraction

    ctg, acg = _benchmark_spec(args).build()
    committed = _run_selected_scheduler(args, ctg, acg, report_dvs=False)
    committed.validate_structure()
    if args.plan:
        plan = FaultPlan.from_json(_read_file(args.plan))
    else:
        plan = generate_fault_plans(
            acg,
            1,
            seed=args.fault_seed,
            horizon=committed.makespan(),
            kinds=(args.kind,),
        )[0]
    result = inject_and_recover(committed, plan)
    print(result.describe())
    deltas = result.utilization_deltas()
    print(
        "utilization: peak PE {:+.3f}, peak link {:+.3f}, "
        "contention wait {:+.1f}".format(
            deltas["peak_pe_utilization"],
            deltas["peak_link_utilization"],
            deltas["contention_wait"],
        )
    )
    if args.simulate:
        validate_transaction_abstraction(
            result.recovery,
            link_faults=plan.transient_windows(),
            min_start=result.fault_time,
        )
        print("simulate : post-fault flit-level delivery confirmed")
    if args.save_plan:
        _write_file(args.save_plan, plan.to_json())
        print(f"fault plan written to {args.save_plan}")
    if args.save:
        _write_file(args.save, schedule_to_json(result.recovery))
        print(f"recovery schedule written to {args.save}")
    return 0


def _handle_faults_sweep(args) -> int:
    import json as _json

    from repro.faults.sweep import run_fault_sweep

    kinds = tuple(kind.strip() for kind in args.kinds.split(",") if kind.strip())
    report = run_fault_sweep(
        _benchmark_spec(args),
        scheduler=args.algorithm,
        n_plans=args.plans,
        seed=args.fault_seed,
        kinds=kinds,
        jobs=args.jobs,
    )
    if args.format == "json":
        payload = _json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
    else:
        payload = report.format_text() + "\n"
    return _write_payload(
        args,
        payload,
        f"fault sweep: {report.survived}/{report.n_plans} survived",
    )


def _handle_export_ctg(args) -> int:
    from repro.ctg.serialization import ctg_to_json

    ctg = generate_category(args.category, args.index, n_tasks=args.n_tasks)
    _write_file(args.output, ctg_to_json(ctg))
    print(f"{ctg.name}: {ctg.n_tasks} tasks, {ctg.n_edges} edges -> {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
