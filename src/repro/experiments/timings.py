"""Per-stage pipeline timings and solver statistics across the suite.

Surfaces the :class:`~repro.pipeline.RunReport` instrumentation of every
benchmark: wall time per stage (synthesis, replay, necessity, clusters,
pathgen, ILP, assembly / sweep-line), which artifacts came from the cache,
and the PDW solver statistics (model size, solve time, MIP gap).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import PDWConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import BenchmarkRun, run_suite

#: Stage columns of the timing table, in pipeline order.
STAGE_COLUMNS = (
    ("synthesis", "synth"),
    ("replay", "replay"),
    ("pdw.necessity", "necess"),
    ("pdw.clusters", "clust"),
    ("pdw.pathgen", "pathgen"),
    ("pdw.ilp", "ilp"),
    ("pdw.assemble", "asm"),
    ("dawo.sweepline", "dawo-sweep"),
)


def _cell(run: BenchmarkRun, stage: str) -> str:
    rec = run.report.get(stage) if run.report else None
    if rec is None:
        return "-"
    mark = "*" if rec.cached else ""
    return f"{rec.wall_s:.3f}{mark}"


def timings_rows(runs: Sequence[BenchmarkRun]) -> List[List[str]]:
    """One row per benchmark: stage wall times (``*`` = cache hit) after
    how many stages the artifact cache served."""
    rows: List[List[str]] = []
    for run in runs:
        served = run.report.cache_hits if run.report else 0
        cells = [run.name, f"{run.wall_time_s:.2f}", str(served) if served else "-"]
        cells.extend(_cell(run, stage) for stage, _ in STAGE_COLUMNS)
        rows.append(cells)
    return rows


def computed_mean_row(runs: Sequence[BenchmarkRun]) -> List[str]:
    """Per-stage mean wall time over *computed* records only.

    Cache hits record their lookup time (a few ms) as ``wall_s``; mixing
    those rows into an average would report the cache's speed, not the
    stage's.  Cells show ``-`` when no benchmark computed that stage.
    """
    cells = ["mean(computed)", "-", "-"]
    for stage, _ in STAGE_COLUMNS:
        walls = []
        for run in runs:
            rec = run.report.get(stage) if run.report else None
            if rec is not None and rec.origin == "computed":
                walls.append(rec.wall_s)
        cells.append(f"{sum(walls) / len(walls):.3f}" if walls else "-")
    return cells


def routing_cache_line(runs: Sequence[BenchmarkRun]) -> str:
    """Aggregate routing-kernel cache traffic across the suite.

    The pathgen stage publishes its shortest-path cache counters
    (``routing_cache_hits`` / ``routing_cache_misses``); cache-served
    stage records carry the counters of the original computation, so the
    aggregate reflects actual routing work.
    """
    hits = misses = 0
    for run in runs:
        rec = run.report.get("pdw.pathgen") if run.report else None
        if rec is None:
            continue
        hits += int(rec.counters.get("routing_cache_hits", 0))
        misses += int(rec.counters.get("routing_cache_misses", 0))
    total = hits + misses
    if total == 0:
        return ""
    return (
        f"Routing cache: {hits} hits / {misses} misses "
        f"({hits / total:.1%} hit rate)\n"
    )


def solver_rows(runs: Sequence[BenchmarkRun]) -> List[List[str]]:
    """One row per benchmark: PDW scheduling-ILP statistics."""
    rows: List[List[str]] = []
    for run in runs:
        rung = getattr(run.pdw, "solver_rung", "") or "-"
        rec = run.report.get("pdw.ilp") if run.report else None
        if rec is None:
            rows.append(
                [run.name, run.pdw.solver_status, rung, "-", "-", "-", "-", "-", "-"]
            )
            continue
        c = rec.counters
        gap = c.get("mip_gap")
        rungs_tried = c.get("rungs_tried")
        rows.append(
            [
                run.name,
                run.pdw.solver_status,
                rung,
                f"{rungs_tried:.0f}" if rungs_tried is not None else "-",
                f"{c.get('variables', 0):.0f}",
                f"{c.get('binaries', 0):.0f}",
                f"{c.get('constraints', 0):.0f}",
                f"{c.get('solve_time_s', 0):.3f}",
                f"{gap:.2e}" if gap is not None else "-",
            ]
        )
    return rows


def timings_report(
    names: Optional[Sequence[str]] = None,
    config: Optional[PDWConfig] = None,
) -> str:
    """Render per-stage timings + solver statistics for the suite.

    Failed benchmarks are listed below the tables instead of aborting
    the report.
    """
    result = run_suite(names, config)
    runs = result.runs

    stage_headers = ["Benchmark", "wall(s)", "cached"]
    stage_headers.extend(label for _, label in STAGE_COLUMNS)
    text = (
        "Pipeline stage timings (s; * = cache hit, cell shows lookup time;\n"
        "the mean row averages computed rows only)\n"
    )
    text += render_table(stage_headers, timings_rows(runs) + [computed_mean_row(runs)])
    cache_line = routing_cache_line(runs)
    if cache_line:
        text += "\n" + cache_line

    solver_headers = [
        "Benchmark", "status", "rung", "tried", "vars", "bin", "constrs",
        "solve(s)", "gap",
    ]
    text += "\nPDW scheduling-ILP solver statistics\n"
    text += render_table(solver_headers, solver_rows(runs))
    for failure in result.failures:
        text += f"  {failure.name}: {failure.label} — excluded from the tables\n"
    return text
