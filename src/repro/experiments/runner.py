"""Run benchmarks through synthesis, DAWO and PDW, with artifact caching.

Two cache levels:

* an in-process memo keyed by ``(benchmark, config)`` preserving object
  identity within a process (``run_benchmark`` twice returns the *same*
  :class:`BenchmarkRun`), and
* the content-addressed on-disk :class:`~repro.pipeline.ArtifactCache`
  (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-pdw``), which stores
  both the whole :class:`BenchmarkRun` and every intermediate stage
  artifact, and therefore survives across processes — a warm
  :func:`run_suite` skips synthesis, replay, necessity, path generation
  and the ILP entirely.

Within one cold run the two methods share upstream work: the baseline is
synthesized once and the contamination replay is computed once, then handed
to both DAWO and PDW (their plans record the stage as ``shared``).

:func:`run_suite` can fan benchmarks out across workers with
:mod:`concurrent.futures` (``workers=`` / ``$REPRO_SUITE_WORKERS``;
threads by default, ``executor="process"`` for CPU-bound parallelism on
multi-core machines) and never aborts mid-suite: a benchmark that fails
with a :class:`~repro.errors.ReproError` (including injected stage
faults) becomes a :class:`FailureRecord` in the returned
:class:`SuiteResult` and the remaining benchmarks still run.  For
process isolation, per-run budgets, retries and resumable journals, pass
a :class:`~repro.experiments.supervisor.SuiteSupervisor` as
``supervisor=`` (what ``pdw suite`` does).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.assay.io import graph_to_dict
from repro.baselines import dawo_plan
from repro.bench import BENCHMARKS, benchmark, load_benchmark
from repro.core import PDWConfig, optimize_washes
from repro.core.plan import WashPlan
from repro.core.stages import REPLAY_STAGE, PDWContext
from repro.envutil import env_int
from repro.errors import DegradedInfeasibleError, ReproError
from repro.forksafe import renew_lock_in_child
from repro.ilp import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline import (
    ArtifactCache,
    PipelineRun,
    RunReport,
    chaos,
    default_cache,
    stable_digest,
)
from repro.synth import synthesize
from repro.synth.synthesis import SynthesisResult

#: Code version of the whole-run artifact; bump when run_benchmark's
#: composition (not just one stage) changes.
RUNNER_VERSION = "2"


def default_config() -> PDWConfig:
    """The config used when callers pass ``config=None``.

    A single constructor shared by :func:`run_benchmark` and the suite
    memo-adoption path — a drift between two inline defaults would
    silently split the in-process memo.
    """
    return PDWConfig(time_limit_s=120.0)


@dataclass
class BenchmarkRun:
    """One benchmark executed through both methods."""

    name: str
    synthesis: SynthesisResult
    dawo: WashPlan
    pdw: WashPlan
    wall_time_s: float
    #: Whether this run was served from the on-disk artifact cache.
    from_cache: bool = False
    #: Per-stage instrumentation (synthesis, replay, and both methods'
    #: pipelines namespaced as ``dawo.*`` / ``pdw.*``).
    report: Optional[RunReport] = None

    def improvement(self, metric: str) -> float:
        """PDW improvement over DAWO in percent (paper's :math:`I_m`)."""
        d = self.dawo.metrics()[metric]
        p = self.pdw.metrics()[metric]
        return 100.0 * (d - p) / d if d else 0.0

    @property
    def sizes(self) -> str:
        """|O|/|D|/|E| string as in Table II column 2."""
        assay = self.synthesis.assay
        return f"{assay.operation_count}/{self.synthesis.device_count}/{assay.edge_count}"


#: Failure kinds recorded by the suite layers, in rough severity order.
#: ``infeasible_degraded`` is a *taxonomy* outcome, not an execution
#: failure: wash planning was proven impossible on a degraded chip.
FAILURE_KINDS = ("timeout", "crash", "oom", "error", "infeasible_degraded")

#: Kinds rendered under their own suite-taxonomy label instead of the
#: generic ``FAILED(kind)`` cell.
_TAXONOMY_LABELS = {"infeasible_degraded": "INFEASIBLE_DEGRADED"}


@dataclass
class FailureRecord:
    """A benchmark the suite could not complete.

    ``kind`` is one of :data:`FAILURE_KINDS`: ``timeout`` (wall-clock
    budget exceeded), ``crash`` (worker died or raised unexpectedly),
    ``oom`` (memory cap hit), ``error`` (a deterministic
    :class:`~repro.errors.ReproError`) or ``infeasible_degraded``
    (washing proven impossible on a degraded chip — reported, by
    design, rather than raised).
    """

    name: str
    kind: str
    message: str = ""
    attempts: int = 1
    wall_time_s: float = 0.0

    @property
    def label(self) -> str:
        """The ``FAILED(kind)`` (or taxonomy) cell the reports render."""
        return _TAXONOMY_LABELS.get(self.kind, f"FAILED({self.kind})")


SuiteEntry = Union[BenchmarkRun, FailureRecord]


@dataclass
class SuiteResult(Sequence):
    """Per-benchmark outcomes of a suite run, in suite order.

    Sequence over *all* entries (``BenchmarkRun | FailureRecord``) so
    existing list-style consumers keep working on clean runs; ``runs`` /
    ``failures`` split them, ``ok`` is true when nothing failed.
    """

    entries: List[SuiteEntry] = field(default_factory=list)
    #: Journal file of the supervising run, when one was used.
    journal_path: Optional[object] = None
    #: Benchmarks served from the journal + cache without re-execution.
    resumed: tuple = ()
    #: Merged metrics dump (parent + all worker subprocesses) of a
    #: supervised run; ``None`` for in-process suites.
    metrics_path: Optional[object] = None

    @property
    def runs(self) -> List[BenchmarkRun]:
        return [e for e in self.entries if isinstance(e, BenchmarkRun)]

    @property
    def failures(self) -> List[FailureRecord]:
        return [e for e in self.entries if isinstance(e, FailureRecord)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __iter__(self) -> Iterator[SuiteEntry]:
        return iter(self.entries)


_CACHE: Dict[tuple, BenchmarkRun] = {}
_CACHE_LOCK = threading.Lock()
renew_lock_in_child(sys.modules[__name__], "_CACHE_LOCK")


def _memo_key(name: str, config: PDWConfig) -> tuple:
    return (name, config, faults.environment_token())


def memo_lookup(name: str, config: Optional[PDWConfig] = None) -> Optional[BenchmarkRun]:
    """The in-process memoized run for ``(name, config)``, if any.

    Shared with the DAG executor's synthesis node so a suite re-run in
    the same process short-circuits the whole benchmark subgraph.
    """
    cfg = config or default_config()
    with _CACHE_LOCK:
        return _CACHE.get(_memo_key(name, cfg))


def adopt_run(run: BenchmarkRun, config: Optional[PDWConfig] = None) -> BenchmarkRun:
    """Adopt a run computed elsewhere (worker process, journal resume)
    into this process's memo, preserving object identity for later
    same-process calls."""
    cfg = config or default_config()
    with _CACHE_LOCK:
        return _CACHE.setdefault(_memo_key(run.name, cfg), run)


def _run_digest(name: str, config: PDWConfig) -> str:
    """Content digest of a whole benchmark run.

    Includes the assay graph and device inventory (so editing a benchmark
    definition invalidates its cached runs), the full config, the
    solver-altering environment (fault injection / forced rung — degraded
    runs must never poison the clean cache), and the runner code version.
    Stage faults (:mod:`repro.pipeline.chaos`) are deliberately *not*
    included: they prevent artifact production instead of altering it, so
    a journaled success stays resumable after the fault is disarmed.
    """
    spec = benchmark(name)
    assay = spec.build()
    inventory = {kind.value: count for kind, count in spec.inventory.items()}
    return stable_digest(
        "benchmark-run", RUNNER_VERSION, name, graph_to_dict(assay), inventory,
        config, faults.environment_token(),
    )


def run_digest(name: str, config: Optional[PDWConfig] = None) -> str:
    """Public alias of the whole-run digest (used by the supervisor)."""
    return _run_digest(name, config or default_config())


def run_benchmark(
    name: str,
    config: Optional[PDWConfig] = None,
    use_cache: bool = True,
    cache: Optional[ArtifactCache] = None,
) -> BenchmarkRun:
    """Synthesize a benchmark and run DAWO + PDW on it.

    ``cache`` overrides the default on-disk artifact cache; pass
    ``use_cache=False`` to bypass (and not populate) both cache levels.
    """
    cfg = config or default_config()
    with obs_trace.span(f"bench.{name}", cached=use_cache) as sp:
        with chaos.scope(name):
            run = _run_benchmark_scoped(name, cfg, use_cache, cache)
        sp.set("from_cache", run.from_cache)
        return run


def _run_benchmark_scoped(
    name: str,
    cfg: PDWConfig,
    use_cache: bool,
    cache: Optional[ArtifactCache],
) -> BenchmarkRun:
    key = _memo_key(name, cfg)
    if use_cache:
        with _CACHE_LOCK:
            hit = _CACHE.get(key)
        if hit is not None:
            return hit

    disk = (cache if cache is not None else default_cache()) if use_cache else None
    started = time.perf_counter()
    digest = _run_digest(name, cfg) if disk is not None else None

    if disk is not None:
        stored = disk.get(digest)
        if isinstance(stored, BenchmarkRun):
            stored.from_cache = True
            obs_metrics.registry().counter(
                "pdw_run_cache_hits_total", benchmark=name
            ).inc()
            with _CACHE_LOCK:
                run = _CACHE.setdefault(key, stored)
            return run

    pipeline = PipelineRun(label=f"bench:{name}", cache=disk)
    spec = benchmark(name)
    assay = load_benchmark(name)
    synthesis = pipeline.timed(
        "synthesis",
        lambda: synthesize(assay, inventory=spec.inventory),
        counters=lambda s: {
            "operations": float(assay.operation_count),
            "devices": float(s.device_count),
            "baseline_makespan_s": float(s.baseline_makespan),
        },
    )
    ctx = PDWContext(synthesis=synthesis, config=cfg)
    tracker = pipeline.run_stage(REPLAY_STAGE, ctx)
    dawo = dawo_plan(synthesis, cache=disk, tracker=tracker)
    pdw = optimize_washes(synthesis, cfg, cache=disk, tracker=tracker)
    pipeline.report.extend(dawo.report, prefix="dawo.")
    pipeline.report.extend(pdw.report, prefix="pdw.")

    run = BenchmarkRun(
        name=name,
        synthesis=synthesis,
        dawo=dawo,
        pdw=pdw,
        wall_time_s=time.perf_counter() - started,
        report=pipeline.report,
    )
    if disk is not None:
        disk.put(digest, run)
    if use_cache:
        with _CACHE_LOCK:
            run = _CACHE.setdefault(key, run)
    return run


# -- suite execution ---------------------------------------------------------------

def _worker_count(names: Sequence[str], workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, workers)
    env = env_int("REPRO_SUITE_WORKERS", minimum=1)
    if env is not None:
        return env
    return max(1, min(len(names), os.cpu_count() or 1))


def _run_benchmark_task(args: tuple) -> SuiteEntry:
    """Top-level worker (picklable for process pools).

    Captures per-benchmark :class:`~repro.errors.ReproError` failures —
    including injected stage faults — as :class:`FailureRecord` entries
    so one broken benchmark never aborts the rest of the suite.
    """
    name, config, use_cache, cache = args
    started = time.perf_counter()
    try:
        return run_benchmark(name, config, use_cache, cache)
    except chaos.InjectedFault as exc:
        return FailureRecord(
            name, "crash", str(exc), wall_time_s=time.perf_counter() - started
        )
    except DegradedInfeasibleError as exc:
        return FailureRecord(
            name,
            "infeasible_degraded",
            str(exc),
            wall_time_s=time.perf_counter() - started,
        )
    except ReproError as exc:
        return FailureRecord(
            name, "error", str(exc), wall_time_s=time.perf_counter() - started
        )


def run_suite(
    names: Optional[Sequence[str]] = None,
    config: Optional[PDWConfig] = None,
    use_cache: bool = True,
    workers: Optional[int] = None,
    executor: str = "thread",
    cache: Optional[ArtifactCache] = None,
    supervisor: Optional["object"] = None,
    sched_workers: Optional[int] = None,
) -> SuiteResult:
    """Run a list of benchmarks (default: the full Table II suite).

    ``workers`` (default: ``$REPRO_SUITE_WORKERS`` or one per CPU, capped
    at the suite size) fans the benchmarks out with
    :mod:`concurrent.futures`; results keep suite order.  ``executor`` is
    ``"thread"`` (shares the in-process memo; best when the disk cache is
    warm or the solver dominates) or ``"process"`` (true CPU parallelism;
    each worker re-imports the library and shares work through the on-disk
    artifact cache only).  ``cache`` overrides the default on-disk
    artifact cache for every benchmark, under both executors.

    ``supervisor`` (a
    :class:`~repro.experiments.supervisor.SuiteSupervisor`) replaces the
    executor fan-out entirely: each benchmark then runs in an isolated
    subprocess under a wall-clock/memory budget with retries and a
    resumable journal.

    ``sched_workers`` instead hands the suite to the stage-DAG executor
    (:class:`~repro.sched.executor.DagExecutor`): the benchmarks are
    compiled to one DAG of stage nodes scheduled across that many worker
    threads, overlapping independent stages of different benchmarks while
    keeping every plan byte-identical to serial execution.
    """
    suite = list(names or BENCHMARKS)
    if supervisor is not None:
        return supervisor.run(suite, config)
    if sched_workers is not None:
        from repro.sched.executor import DagExecutor

        dag = DagExecutor(workers=sched_workers, cache=cache, use_cache=use_cache)
        return dag.run(suite, config)
    if executor not in ("thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    n_workers = _worker_count(suite, workers)
    tasks = [(name, config, use_cache, cache) for name in suite]
    if n_workers <= 1 or len(suite) <= 1:
        return SuiteResult([_run_benchmark_task(task) for task in tasks])

    if executor == "process":
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            entries = list(pool.map(_run_benchmark_task, tasks))
        if use_cache:
            # Adopt the workers' results into this process's memo so later
            # same-process calls return identical objects.
            for entry in entries:
                if isinstance(entry, BenchmarkRun):
                    adopt_run(entry, config)
        return SuiteResult(entries)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return SuiteResult(list(pool.map(_run_benchmark_task, tasks)))


def clear_cache() -> None:
    """Drop all in-process cached runs (used by tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()
