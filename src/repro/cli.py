"""The ``pdw`` command-line tool.

Subcommands::

    pdw run <benchmark> [--method pdw|dawo|immediate] [--gantt] [--chip]
            [--stats] [--no-cache] [--degrade SPEC]
    pdw list
    pdw report {table2,fig4,fig5,ablation,necessity,pareto,timings,
                failures,degrade,trace,all} [benchmark]
    pdw suite [benchmark ...] [--timeout S] [--retries N] [--max-rss MB]
              [--workers N]                 # one forked child per benchmark
    pdw suite [benchmark ...] --degrade SPEC[,SPEC...]
              [--degrade-online [NODE@TICK]]      # one forked child per cell
    pdw bench [benchmark ...] [--iterations N] [--quick] [--out FILE]
              [--compare BASELINE.json] [--threshold PCT]
    pdw assay <file.json> [--method ...]     # optimize a user assay
    pdw cost <benchmark>                     # chip cost + plan comparison
    pdw simulate <benchmark> [--method ...]  # discrete-event execution log
    pdw export <benchmark> --what plan|actuation|svg|trace|metrics
               [--format json|prom] [--out FILE]
    pdw cache {info,clear,verify,gc} [--cache DIR]  # on-disk artifact cache
    pdw serve [--host H] [--port P] [--workers N] [--queue-cap N]
              [--cache DIR] [--timeout S]    # HTTP job API (docs/SERVICE.md)

Exit codes: 0 success; 1 simulation broken / corrupt cache entries found /
``pdw bench --compare`` detected a hot-path regression; 2 a
:class:`~repro.errors.ReproError` (clean one-line message on stderr);
3 ``pdw suite`` completed but lost at least one benchmark (partial
success — see ``pdw report failures``), or a degradation matrix had an
``INFEASIBLE_DEGRADED``/failed cell (see ``pdw report degrade``).

The full reference, including every flag, lives in docs/CLI.md — a unit
test asserts that document against :func:`build_parser`'s argparse tree,
so it cannot drift.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only what build_parser needs is imported here; each handler imports the
# rest of the stack itself, so `pdw --help`, `pdw list` and `pdw cache`
# never load numpy, scipy or the solver (docs/PERFORMANCE.md "Start-up").
from repro.bench import BENCHMARKS
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core import PDWConfig

_SOLVERS = ("auto", "highs", "branch_bound", "greedy")
_PRESOLVE = ("on", "off")
_METHODS = ("pdw", "dawo", "immediate")


def _print_plan(plan, show_gantt: bool, show_chip: bool, show_stats: bool = False) -> None:
    print(f"method:      {plan.method} ({plan.solver_status} via {plan.solver_rung})")
    for key, value in plan.metrics().items():
        print(f"{key + ':':<13}{value:g}")
    for wash in plan.washes:
        print(
            f"  {wash.id}: [{wash.start}, {wash.end}) s  "
            f"path {' -> '.join(wash.path)}"
        )
    info = getattr(plan, "degradation", None)
    if info is not None:
        print(
            f"degradation: {info.spec}  dead={len(info.dead)} "
            f"coverage={100.0 * info.coverage:.0f}%"
        )
        if info.uncovered_targets:
            print(f"  uncovered: {', '.join(info.uncovered_targets)}")
    for record in getattr(plan, "repairs", ()) or ():
        print(
            f"repair r{record.round}: {record.node}@{record.fail_time} hit "
            f"{record.detected_task} {list(record.window)} -> {record.outcome}"
        )
    if show_stats and plan.report is not None:
        print()
        print(plan.report.render())
    if show_chip:
        from repro.viz import render_chip

        print()
        print(render_chip(plan.chip))
    if show_gantt:
        from repro.schedule import render_gantt

        print()
        print(render_gantt(plan.schedule))


def build_parser() -> argparse.ArgumentParser:
    """The complete ``pdw`` argparse tree.

    Exposed separately from :func:`main` so docs/CLI.md can be asserted
    against it (tests/unit/test_docs_cli.py) and never drift.
    """
    parser = argparse.ArgumentParser(prog="pdw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in benchmarks")

    p_run = sub.add_parser("run", help="optimize a built-in benchmark")
    p_run.add_argument("benchmark", choices=list(BENCHMARKS))
    p_run.add_argument("--method", choices=_METHODS, default="pdw")
    p_run.add_argument("--time-limit", type=float, default=120.0)
    p_run.add_argument(
        "--solver", choices=_SOLVERS, default="auto",
        help="pin a solver ladder rung (default: full degradation ladder)",
    )
    p_run.add_argument(
        "--presolve", choices=_PRESOLVE, default="on",
        help="ILP model-reduction layer (default on; plans byte-identical only at a proving gap)",
    )
    p_run.add_argument("--gantt", action="store_true", help="print the schedule chart")
    p_run.add_argument("--chip", action="store_true", help="print the chip layout")
    p_run.add_argument(
        "--stats", action="store_true", help="print per-stage pipeline timings"
    )
    p_run.add_argument(
        "--no-cache", action="store_true", help="bypass the on-disk artifact cache"
    )
    p_run.add_argument(
        "--degrade", default="", metavar="SPEC",
        help="plan on a degraded chip: light|moderate|heavy or "
        "channels=N[:valves=N][:devices=N][:seed=N][:dead=n1+n2] (PDW only)",
    )

    p_assay = sub.add_parser("assay", help="optimize an assay from a JSON file")
    p_assay.add_argument("file", type=Path)
    p_assay.add_argument("--method", choices=_METHODS, default="pdw")
    p_assay.add_argument("--time-limit", type=float, default=120.0)
    p_assay.add_argument("--solver", choices=_SOLVERS, default="auto")
    p_assay.add_argument("--presolve", choices=_PRESOLVE, default="on")
    p_assay.add_argument("--gantt", action="store_true")
    p_assay.add_argument("--chip", action="store_true")
    p_assay.add_argument("--stats", action="store_true")
    p_assay.add_argument("--no-cache", action="store_true")

    p_report = sub.add_parser(
        "report", help="regenerate the paper's tables/figures, or render a trace"
    )
    p_report.add_argument(
        "name",
        choices=(
            "table2", "fig4", "fig5", "ablation", "necessity", "pareto",
            "timings", "failures", "degrade", "trace", "all",
        ),
    )
    p_report.add_argument(
        "benchmark", nargs="?", choices=list(BENCHMARKS), default=None,
        help="benchmark to trace (required by 'report trace', ignored otherwise)",
    )
    p_report.add_argument("--time-limit", type=float, default=120.0)
    p_report.add_argument(
        "--method", choices=_METHODS, default="pdw",
        help="trace: which optimizer to run under the tracer",
    )
    p_report.add_argument(
        "--no-cache", action="store_true",
        help="trace: bypass the artifact cache so every stage computes",
    )

    p_suite = sub.add_parser(
        "suite", help="run benchmarks, each in a forked child under a budget"
    )
    # nargs="*" + choices rejects the zero-arg case on Python < 3.12
    # (bpo-9625), so benchmark lists are validated by _check_benchmarks.
    p_suite.add_argument(
        "benchmarks", nargs="*", metavar="benchmark", default=None,
        help=f"benchmarks to run (default: the full suite; one of {', '.join(BENCHMARKS)})",
    )
    p_suite.add_argument("--time-limit", type=float, default=120.0)
    p_suite.add_argument(
        "--presolve", choices=_PRESOLVE, default="on",
        help="ILP model-reduction layer (default on; plans byte-identical only at a proving gap)",
    )
    p_suite.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-benchmark (or per-cell) wall-clock budget in seconds",
    )
    p_suite.add_argument(
        "--retries", type=int, default=0,
        help="retry crashed/timed-out benchmarks or cells up to N times",
    )
    p_suite.add_argument(
        "--max-rss", type=float, default=None, metavar="MB",
        help="best-effort per-run address-space cap in MiB",
    )
    p_suite.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="benchmarks (or cells) run at once (default: one each, at most "
        "one per CPU; plans stay byte-identical to serial)",
    )
    p_suite.add_argument(
        "--degrade", default="", metavar="SPEC",
        help="run the degradation matrix instead of the benchmark suite: "
        "comma-separated scenarios (light|moderate|heavy or key=value specs)",
    )
    p_suite.add_argument(
        "--degrade-online", nargs="?", const="auto", default=None,
        metavar="NODE@TICK",
        help="additionally inject a mid-execution channel failure per cell "
        "and run the detect→replan repair loop ('auto' picks one "
        "deterministically)",
    )
    p_suite.add_argument("--no-cache", action="store_true")

    p_bench = sub.add_parser(
        "bench", help="cold-run perf baselines: medians/p95 per stage and rung"
    )
    p_bench.add_argument(
        "benchmarks", nargs="*", metavar="benchmark", default=None,
        help="benchmark matrix (default: the full Table II suite)",
    )
    p_bench.add_argument("--time-limit", type=float, default=120.0)
    p_bench.add_argument(
        "--presolve", choices=_PRESOLVE, default="on",
        help="ILP model-reduction layer (default on; plans byte-identical only at a proving gap)",
    )
    p_bench.add_argument(
        # perf.DEFAULT_ITERATIONS and perf.QUICK_BENCHMARK, spelled out so
        # that building the parser does not load the bench comparer
        # (tests/unit/test_cli.py holds them equal).
        "--iterations", type=int, default=3,
        help="cold samples per benchmark (median/p95 are taken over these)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="smoke matrix: one iteration of Kinase-act-1 only",
    )
    p_bench.add_argument(
        "--out", type=Path, default=None,
        help="output file (default: BENCH_<git-sha>.json in the CWD)",
    )
    p_bench.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="gate this run against a baseline artifact; exit 1 on regression",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=25.0, metavar="PCT",
        help="allowed hot-path median growth in percent (default 25)",
    )

    p_cache = sub.add_parser("cache", help="inspect, verify, or clear the artifact cache")
    p_cache.add_argument("action", choices=("info", "clear", "verify", "gc"))
    p_cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc: evict oldest entries until the cache fits this many bytes",
    )
    p_cache.add_argument(
        "--cache", default=None, metavar="DIR", dest="cache_dir",
        help="operate on this cache directory (beats $REPRO_CACHE_DIR beats "
        "~/.cache/repro-pdw)",
    )

    p_serve = sub.add_parser(
        "serve", help="long-running optimization-as-a-service job server"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 to expose)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8977,
        help="TCP port (default 8977; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="jobs run at once, each in its own forked process (default 2)",
    )
    p_serve.add_argument(
        "--queue-cap", type=int, default=64, metavar="N",
        help="bounded admission: queued-job cap before submits get 429 "
        "(default 64)",
    )
    p_serve.add_argument(
        "--cache", default=None, metavar="DIR", dest="cache_dir",
        help="artifact cache directory (beats $REPRO_CACHE_DIR beats "
        "~/.cache/repro-pdw)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-job wall-clock budget in seconds (default 600)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true", help="bypass the artifact cache"
    )

    p_cost = sub.add_parser("cost", help="chip cost report + plan comparison")
    p_cost.add_argument("benchmark", choices=list(BENCHMARKS))
    p_cost.add_argument("--time-limit", type=float, default=120.0)

    p_sim = sub.add_parser("simulate", help="discrete-event execution log")
    p_sim.add_argument("benchmark", choices=list(BENCHMARKS))
    p_sim.add_argument("--method", choices=_METHODS, default="pdw")
    p_sim.add_argument("--time-limit", type=float, default=120.0)
    p_sim.add_argument("--events", action="store_true", help="print every event")

    p_export = sub.add_parser(
        "export", help="export plan/actuation/SVG/trace/metrics artifacts"
    )
    p_export.add_argument("benchmark", choices=list(BENCHMARKS))
    p_export.add_argument(
        "--what",
        choices=("plan", "actuation", "svg", "trace", "metrics"),
        default="plan",
        help="trace = Chrome-trace JSON (about:tracing / Perfetto); "
        "metrics = the run's metrics registry",
    )
    p_export.add_argument("--method", choices=_METHODS, default="pdw")
    p_export.add_argument("--time-limit", type=float, default=120.0)
    p_export.add_argument(
        "--format", choices=("json", "prom"), default="json", dest="format",
        help="metrics only: JSON snapshot or Prometheus text exposition",
    )
    p_export.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    return parser


def _check_benchmarks(names: list[str] | None) -> None:
    """Manual benchmark-name validation for ``nargs="*"`` positionals."""
    for name in names or ():
        if name not in BENCHMARKS:
            raise ReproError(
                f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARKS)}"
            )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Every library failure surfaces as a clean one-line error, never a
        # traceback — infeasible ILPs, malformed assays, solver breakdowns.
        print(f"pdw: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name, spec in BENCHMARKS.items():
            print(
                f"{name:15s} |O|={spec.expected_ops:3d} "
                f"|D|={spec.expected_devices:3d} |E|={spec.expected_edges:3d}"
            )
        return 0

    if args.command == "report":
        if args.name == "failures":
            from repro.sched.journal import failures_report

            print(failures_report())
            return 0
        if args.name == "degrade":
            from repro.degrade.report import degrade_report

            print(degrade_report())
            return 0
        if args.name == "trace":
            return _run_report_trace(args)
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main([args.name, "--time-limit", str(args.time_limit)])

    if args.command == "suite":
        _check_benchmarks(args.benchmarks)
        return _run_suite_cmd(args)

    if args.command == "bench":
        _check_benchmarks(args.benchmarks)
        return _run_bench_cmd(args)

    if args.command == "cache":
        return _run_cache(
            args.action, getattr(args, "max_bytes", None), args.cache_dir
        )

    if args.command == "serve":
        return _run_serve(args)

    degrade = getattr(args, "degrade", "")
    if degrade and args.method != "pdw":
        raise ReproError(
            "--degrade is a PDW capability; the baselines have no "
            "avoid-set routing (use --method pdw)"
        )
    from repro.core import PDWConfig

    config = PDWConfig(
        time_limit_s=args.time_limit,
        solver=getattr(args, "solver", "auto"),
        presolve=getattr(args, "presolve", "on"),
        degrade=degrade,
    )

    if args.command == "cost":
        return _run_cost(args.benchmark, config)
    if args.command == "simulate":
        return _run_simulate(args.benchmark, args.method, config, args.events)
    if args.command == "export":
        return _run_export(
            args.benchmark, args.what, args.method, config, args.out, args.format
        )

    from repro.experiments.runner import plan_one
    from repro.pipeline import default_cache

    if args.command == "run":
        target = args.benchmark
    else:
        from repro.assay import graph_from_json, parse_assay

        text = args.file.read_text()
        if args.file.suffix == ".json":
            target = graph_from_json(text)
        else:  # .dsl / .assay text format
            target = parse_assay(text)
    cache = None if args.no_cache else default_cache()
    plan = plan_one(target, args.method, config, cache)
    _print_plan(plan, args.gantt, args.chip, args.stats)
    return 0


def _run_suite_cmd(args: argparse.Namespace) -> int:
    # Loads the whole solve stack before any child forks, so the children
    # inherit it instead of each importing it again.
    from repro.core import PDWConfig
    from repro.experiments.runner import FailureRecord
    from repro.pipeline import default_cache
    from repro.sched.executor import SuiteExecutor
    from repro.sched.journal import RunBudget, default_journal_path

    config = PDWConfig(
        time_limit_s=args.time_limit,
        presolve=getattr(args, "presolve", "on"),
    )
    budget = RunBudget(
        timeout_s=args.timeout,
        max_rss_bytes=int(args.max_rss * 2**20) if args.max_rss else None,
        retries=max(0, args.retries),
    )
    cache = None if args.no_cache else default_cache()
    executor = SuiteExecutor(
        budget=budget,
        cache=cache,
        use_cache=not args.no_cache,
        workers=args.workers,
        journal_path=default_journal_path(cache),
    )
    if args.degrade or args.degrade_online is not None:
        return _run_degrade_matrix_cmd(args, config, executor)
    result = executor.run(args.benchmarks or None, config)
    for entry in result:
        if isinstance(entry, FailureRecord):
            print(
                f"{entry.name:15s} {entry.label}  "
                f"attempts={entry.attempts}  {entry.message}"
            )
        else:
            origin = "cache" if entry.report.cache_hits else "run"
            print(
                f"{entry.name:15s} OK ({origin})  "
                f"wall={entry.wall_time_s:.2f}s  "
                f"T_assay pdw={entry.pdw.metrics()['t_assay_s']:g}s"
            )
    ok = len(result.runs)
    print(f"{ok}/{len(result)} benchmarks succeeded; journal: {result.journal_path}")
    if result.metrics_path is not None:
        print(f"merged metrics dump: {result.metrics_path}")
    return 0 if not result.failures else 3


def _run_degrade_matrix_cmd(args: argparse.Namespace, config: PDWConfig, executor) -> int:
    """``pdw suite --degrade``: the benchmark × scenario robustness matrix,
    one cell per work item of the suite's executor."""
    from repro.degrade.suite import run_degrade_matrix

    result = run_degrade_matrix(
        names=args.benchmarks or None,
        scenarios=args.degrade,
        config=config,
        online=args.degrade_online,
        executor=executor,
    )
    print(result.render())
    ok = sum(1 for row in result.rows if row.ok)
    print(f"{ok}/{len(result.rows)} cells succeeded; journal: {result.journal_path}")
    return 0 if result.ok else 3


def _run_report_trace(args: argparse.Namespace) -> int:
    """``pdw report trace <benchmark>``: run under the tracer, render the tree."""
    from repro.core import PDWConfig
    from repro.experiments.runner import run_benchmark
    from repro.obs.trace import tracer
    from repro.pipeline import digest_config

    if args.benchmark is None:
        raise ReproError("'pdw report trace' needs a benchmark name")
    tracer().enable()
    tracer().clear()
    config = PDWConfig(time_limit_s=args.time_limit)
    run_benchmark(args.benchmark, config, use_cache=not args.no_cache)
    print(f"trace of {args.benchmark} (config {digest_config(config)[:12]})")
    print(tracer().render_tree())
    return 0


def _run_bench_cmd(args: argparse.Namespace) -> int:
    """``pdw bench``: perf baselines + optional regression gate."""
    from repro.core import PDWConfig
    from repro.obs import perf

    config = PDWConfig(
        time_limit_s=args.time_limit,
        presolve=getattr(args, "presolve", "on"),
    )
    result = perf.run_bench(
        names=args.benchmarks or None,
        config=config,
        iterations=args.iterations,
        quick=args.quick,
        progress=lambda line: print(f"  {line}"),
    )
    out = args.out if args.out is not None else result.default_path(Path.cwd())
    out.write_text(result.to_json() + "\n", encoding="utf-8")
    print(f"wrote bench baseline to {out} (config {result.payload['config_digest'][:12]})")
    if args.compare is None:
        return 0
    baseline = perf.load_bench(args.compare)
    report = perf.compare_bench(
        result.payload, baseline, threshold_pct=args.threshold
    )
    print(report.render(), end="")
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    """``pdw serve``: the optimization-as-a-service front door (DESIGN.md §15)."""
    # Loads the whole solve stack before the readiness line, so the first
    # job does not pay for the import.
    from repro.serve import JobServer

    server = JobServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_cap=args.queue_cap,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        job_timeout_s=args.timeout,
    )
    # The readiness line goes to stdout *flushed* so harnesses (CI, the
    # TUTORIAL §10 walkthrough) can wait on it before the first request.
    print(f"pdw serve listening on http://{server.host}:{server.port}", flush=True)
    server.serve_forever(install_signals=True)
    print("pdw serve: shut down cleanly", flush=True)
    return 0


def _run_cache(
    action: str, max_bytes: int | None = None, cache_dir: str | None = None
) -> int:
    from repro.pipeline import default_cache, default_cache_dir

    cache = default_cache(cache_dir)
    if cache is None:
        print("artifact cache disabled (REPRO_CACHE=off)")
        return 0
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} artifacts from {cache.root}")
        return 0
    if action == "verify":
        report = cache.verify()
        print(report.render())
        return 1 if report.quarantined else 0
    if action == "gc":
        removed, freed = cache.gc(max_bytes)
        print(f"evicted {removed} artifacts ({freed} bytes) from {cache.root}")
        return 0
    count, total = cache.stats()
    print(f"cache dir:   {default_cache_dir(cache_dir)}")
    print(f"artifacts:   {count}")
    print(f"total bytes: {total}")
    return 0


def _run_cost(bench_name: str, config: PDWConfig) -> int:
    from repro.analysis import chip_cost, compare_plans
    from repro.experiments.runner import plan_one, synthesize_target
    from repro.pipeline import default_cache

    synth = synthesize_target(bench_name)
    cache = default_cache()
    pdw = plan_one(synth, "pdw", config, cache)
    dawo = plan_one(synth, "dawo", config, cache)

    print(f"chip cost of {bench_name} (baseline schedule):")
    for key, value in chip_cost(synth.chip, synth.schedule).as_dict().items():
        print(f"  {key:<20}{value:g}")
    print()
    print(compare_plans([pdw, dawo]))
    return 0


def _run_export(
    bench_name: str,
    what: str,
    method: str,
    config: PDWConfig,
    out: Path | None,
    fmt: str = "json",
) -> int:
    from repro.experiments.runner import plan_one, synthesize_target
    from repro.export import actuation_program, plan_to_json, render_svg
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import tracer
    from repro.pipeline import default_cache, digest_config

    if what in ("trace", "metrics"):
        # Observe a fresh run: clear the collectors, trace the whole
        # optimization, and stamp the artifact with the config digest.
        tracer().enable()
        tracer().clear()
        obs_metrics.reset()

    synth = synthesize_target(bench_name)
    plan = plan_one(synth, method, config, default_cache())
    if what == "plan":
        text = plan_to_json(plan)
    elif what == "actuation":
        text = actuation_program(synth.chip, plan.schedule)
    elif what == "trace":
        text = tracer().chrome_trace(config_digest=digest_config(config))
    elif what == "metrics":
        if fmt == "prom":
            text = obs_metrics.registry().render_prometheus()
        else:
            import json as _json

            payload = {
                **obs_metrics.snapshot(),
                "config_digest": digest_config(config),
                "benchmark": bench_name,
            }
            text = _json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_svg(synth.chip, paths=[w.path for w in plan.washes])
    if out is None:
        print(text)
    else:
        out.write_text(text)
        print(f"wrote {what} artifact to {out}")
    return 0


def _run_simulate(bench_name: str, method: str, config: PDWConfig, events: bool) -> int:
    from repro.experiments.runner import plan_one, synthesize_target
    from repro.pipeline import default_cache
    from repro.sim import simulate_plan

    synth = synthesize_target(bench_name)
    plan = plan_one(synth, method, config, default_cache())
    report = simulate_plan(plan, synth)
    print(f"{plan.method} plan on {bench_name}: {report.summary()}")
    print("execution " + ("OK" if report.ok else "BROKEN"))
    shown = report.events if events else report.anomalies
    for event in shown:
        print(f"  {event}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
