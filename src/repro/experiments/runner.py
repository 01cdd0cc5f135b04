"""Run benchmarks through synthesis, DAWO and PDW, with artifact caching.

A later process reuses one thing: the content-addressed on-disk
:class:`~repro.pipeline.ArtifactCache` (default: ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-pdw``), which stores every keyed stage artifact (replay,
necessity, clusters, pathgen, the ILP, DAWO's stages).  A warm
:func:`run_benchmark` synthesizes (keyless, milliseconds), gets every
keyed stage back from that cache and assembles both plans; its stage
records and ``wall_time_s`` are its own.  Within one process an
in-process memo keyed by ``(benchmark, config)`` preserves object
identity (``run_benchmark`` twice returns the *same*
:class:`BenchmarkRun`), so Table II and Fig. 4/5 share their runs.

Within one run the two methods share upstream work: the baseline is
synthesized once and the contamination replay is computed once, then
handed to both DAWO and PDW (their plans record the stage as ``shared``).

:func:`plan_one` makes a single method's plan of a benchmark or assay —
what ``pdw run``, ``pdw assay`` and every ``pdw serve`` job ask for — with
per-stage caching and no memo.

:func:`run_suite` runs a list of benchmarks through the suite engine,
:class:`~repro.sched.executor.SuiteExecutor`, in process one benchmark
at a time, and never aborts mid-suite: a benchmark whose
:func:`run_benchmark` raises becomes a :class:`FailureRecord` (kind by
:func:`classify_failure`) in the returned :class:`SuiteResult` and the
remaining benchmarks still run.  ``pdw suite`` drives the same engine
with a budget, which forks one child per benchmark attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.baselines import dawo_plan, immediate_wash_plan
from repro.bench import BENCHMARKS, benchmark, load_benchmark
from repro.core import PDWConfig, optimize_washes
from repro.core.plan import WashPlan
from repro.core.stages import REPLAY_STAGE, PDWContext
from repro.errors import DegradationError, DegradedInfeasibleError, ReproError
from repro.ilp import faults
from repro.obs import trace as obs_trace
from repro.pipeline import ArtifactCache, PipelineRun, RunReport, chaos, default_cache
from repro.synth import synthesize
from repro.synth.synthesis import SynthesisResult

if TYPE_CHECKING:
    from repro.assay.graph import SequencingGraph


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


def classify_failure(exc: BaseException) -> Tuple[str, str]:
    """``(kind, message)`` of a raised error, ``kind`` one of
    :data:`FAILURE_KINDS`: the one mapping every suite attempt and every
    ``pdw serve`` job uses."""
    if isinstance(exc, chaos.InjectedFault):
        return "crash", str(exc)
    if isinstance(exc, MemoryError):
        return "oom", "MemoryError while running benchmark"
    if isinstance(exc, (DegradedInfeasibleError, DegradationError)):
        # A degradation spec this chip cannot take is as final as one
        # proven unwashable.
        return "infeasible_degraded", str(exc)
    if isinstance(exc, ReproError):
        return "error", str(exc)
    return "crash", f"{type(exc).__name__}: {exc}"


@dataclass
class SuiteResult(Sequence):
    """Per-benchmark outcomes of a suite run, in suite order.

    Sequence over *all* entries (``BenchmarkRun | FailureRecord``) so
    existing list-style consumers keep working on clean runs; ``runs`` /
    ``failures`` split them, ``ok`` is true when nothing failed.
    """

    entries: List[SuiteEntry] = field(default_factory=list)
    #: The run journal the suite appended to.
    journal_path: Optional[object] = None
    #: The metrics dump written next to the journal (with a budget, merged
    #: over every benchmark's child).
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


def _memo_key(name: str, config: PDWConfig) -> tuple:
    return (name, config, faults.environment_token())


def adopt_run(run: BenchmarkRun, config: Optional[PDWConfig] = None) -> BenchmarkRun:
    """Adopt a run computed elsewhere (a suite attempt's forked child)
    into this process's memo, preserving object identity for later
    same-process calls."""
    cfg = config or default_config()
    return _CACHE.setdefault(_memo_key(run.name, cfg), run)


def run_benchmark(
    name: str,
    config: Optional[PDWConfig] = None,
    use_cache: bool = True,
    cache: Optional[ArtifactCache] = None,
) -> BenchmarkRun:
    """Synthesize a benchmark and run DAWO + PDW on it.

    ``cache`` overrides the default on-disk artifact cache; pass
    ``use_cache=False`` to bypass (and not populate) both the in-process
    memo and the per-stage cache.
    """
    cfg = config or default_config()
    key = _memo_key(name, cfg)
    if use_cache:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
    disk = (cache if cache is not None else default_cache()) if use_cache else None
    with obs_trace.span(f"bench.{name}", cached=use_cache), chaos.scope(name):
        started = time.perf_counter()
        pipeline = PipelineRun(label=f"bench:{name}", cache=disk)
        synthesis = pipeline.timed(
            "synthesis",
            lambda: synthesize_target(name),
            counters=lambda s: {
                "operations": float(s.assay.operation_count),
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
    return _CACHE.setdefault(key, run) if use_cache else run


# -- one method's plan ------------------------------------------------------------

def synthesize_target(
    target: Union[str, "SequencingGraph", SynthesisResult],
) -> SynthesisResult:
    """The synthesis of a benchmark name (with its device inventory) or of
    an assay graph; a synthesis passes through."""
    if isinstance(target, SynthesisResult):
        return target
    if isinstance(target, str):
        return synthesize(load_benchmark(target), inventory=benchmark(target).inventory)
    return synthesize(target)


def plan_one(
    target: Union[str, "SequencingGraph", SynthesisResult],
    method: str = "pdw",
    config: Optional[PDWConfig] = None,
    cache: Optional[ArtifactCache] = None,
) -> WashPlan:
    """One method's plan of a benchmark, an assay graph or a synthesis.

    The single way one plan is made: ``pdw run``, ``pdw assay``,
    ``pdw cost``, ``pdw export``, ``pdw simulate`` and every ``pdw serve``
    job call it.  ``cache`` serves and stores stage artifacts (``None``:
    none).  A benchmark name also scopes the run for ``@<benchmark>``
    stage faults, as :func:`run_benchmark` does.
    """
    if isinstance(target, str):
        with chaos.scope(target):
            return plan_one(synthesize_target(target), method, config, cache)
    synthesis = synthesize_target(target)
    if method == "pdw":
        return optimize_washes(synthesis, config or default_config(), cache=cache)
    if method == "dawo":
        return dawo_plan(synthesis, cache=cache)
    if method == "immediate":
        return immediate_wash_plan(synthesis)
    raise ReproError(f"unknown method {method!r}; one of pdw, dawo, immediate")


# -- suite execution ---------------------------------------------------------------

def run_suite(
    names: Optional[Sequence[str]] = None,
    config: Optional[PDWConfig] = None,
    use_cache: bool = True,
    cache: Optional[ArtifactCache] = None,
) -> SuiteResult:
    """Run a list of benchmarks (default: the full Table II suite).

    Each benchmark is one :func:`run_benchmark` in this process, one at
    a time (:class:`~repro.sched.executor.SuiteExecutor` without a
    budget); results keep suite order.  ``cache`` overrides the default
    on-disk artifact cache.  Writes no run journal and no metrics dump.
    """
    from repro.sched.executor import SuiteExecutor

    executor = SuiteExecutor(cache=cache, use_cache=use_cache)
    return executor.run(list(names or BENCHMARKS), config)


def clear_cache() -> None:
    """Drop all in-process cached runs (used by tests)."""
    _CACHE.clear()
