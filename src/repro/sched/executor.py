"""The one suite engine: a priority-ordered worklist over the stage DAG.

:class:`DagExecutor` runs every suite — ``pdw suite``, ``run_suite``
(Table II, Fig. 4/5, timings), ``pdw bench`` and each ``pdw serve``
benchmark job.  The suite is compiled to the static DAG of
:mod:`repro.sched.graph` and executed by worker threads pulling from a
ready heap ordered by critical-path length (Polyphony-style list
scheduling — the node with the longest downstream chain runs first,
suite position and creation order breaking ties deterministically).

Two ways to run it, chosen by the :class:`~repro.sched.journal.RunBudget`:

* **without a budget** the whole DAG runs in this process on a thread
  pool;
* **with a wall-clock or address-space budget** (``pdw suite`` always
  has one) each benchmark's subgraph runs in one forked child
  (:class:`repro.procutil.Child`): the child runs the in-process
  one-benchmark DAG and sends back its ``BenchmarkRun`` (or failure)
  and metrics snapshot; the parent kills a child past ``timeout_s``,
  caps its address space with ``setrlimit``, classifies a child that
  dies as ``crash``/``oom``, retries dead or timed-out children with
  backoff, and journals the benchmark-level events.  A timeout always
  kills a process; no thread is ever abandoned.

Within one process the retry / journal machinery applies **per node**:

* a failed ILP solve retries only its own node (deterministic
  exponential backoff) — the benchmark's pathgen is *not* re-run, which
  the journal's ``node_attempt`` events prove,
* a terminal node failure cancels exactly its transitive dependents;
  sibling chains (DAWO next to a crashed PDW ILP) and sibling benchmarks
  complete normally,
* ``resume=True`` replays journaled benchmark successes from the artifact
  cache without re-execution, and within a partially-complete benchmark
  the per-stage artifact cache gives node-granular resume for free: every
  stage that finished before the interruption comes back ``origin=cache``.

Plan outputs are byte-identical to serial execution for any worker count
and either way of running: each method chain is sequential under its
dependency edges, the shared replay is a single node, and every stage is
itself deterministic — the workers only overlap *independent* work.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.dawo import DAWO_CONFIG
from repro.bench import BENCHMARKS, benchmark, load_benchmark
from repro.core import PDWConfig
from repro.core.pdw import no_wash_plan, record_ilp_rows, verify_plan
from repro.core.stages import REPLAY_STAGE, PDWContext
from repro.errors import DegradedInfeasibleError, ReproError
from repro.experiments.runner import (
    BenchmarkRun,
    FailureRecord,
    SuiteResult,
    adopt_run,
    default_config,
    memo_lookup,
    run_digest,
)
from repro.ilp import faults
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span, tracer
from repro.pipeline import ArtifactCache, PipelineRun, chaos, default_cache, digest_config
from repro.procutil import Child, safe_send, wait_any
from repro.sched import journal as sched_journal
from repro.sched.graph import RUN, SHARED, StageNode, build_graph
from repro.sched.journal import RETRYABLE_KINDS, RunBudget, default_journal_path
from repro.sim.validate import validate_plan
from repro.synth import synthesize


@dataclass
class _Bench:
    """Mutable per-benchmark state threaded between that benchmark's nodes."""

    name: str
    index: int
    digest: str
    #: Nodes of this benchmark not yet terminal; 0 finalizes the benchmark.
    remaining: int = 0
    started: float = 0.0
    synthesis: Any = None
    main_run: Optional[PipelineRun] = None
    pdw_run: Optional[PipelineRun] = None
    dawo_run: Optional[PipelineRun] = None
    pdw_ctx: Optional[PDWContext] = None
    dawo_ctx: Optional[PDWContext] = None
    pdw_plan: Any = None
    dawo_plan: Any = None
    #: PDW's no-wash-needed early exit: downstream PDW nodes become no-ops.
    pdw_short: bool = False
    #: The finished run — set early on a whole-run cache/memo hit, in which
    #: case every remaining node of the benchmark completes as ``skipped``.
    run: Optional[BenchmarkRun] = None
    failure: Optional[FailureRecord] = None


@dataclass
class _NodeState:
    """Scheduler-side bookkeeping for one :class:`StageNode`."""

    node: StageNode
    #: Dependency node ids not yet completed.
    waiting: Set[str] = field(default_factory=set)
    #: pending | ready | running | backoff | done | failed | cancelled
    status: str = "pending"
    #: Attempts started so far (1-based once running).
    attempt: int = 0
    #: ``perf_counter`` when the node last entered the ready heap; the
    #: queue-wait metric is ``started - ready_at``.
    ready_at: float = 0.0
    #: Ready-to-start latency of the successful attempt, filled by the
    #: completion handler and attached to the stage record at collect time
    #: — after every ``plan.notes`` snapshot, so plan notes stay exactly
    #: what serial execution produces.
    queue_wait: Optional[float] = None


class DagExecutor:
    """The suite engine: stage-DAG execution, in process or one fork per
    benchmark.

    ``run`` takes the benchmark names and config and returns a
    :class:`~repro.experiments.runner.SuiteResult` in suite order.

    ``budget`` holds the retry policy and, when it sets ``timeout_s`` or
    ``max_rss_bytes``, makes each benchmark run in a forked child held
    to those limits.  ``workers`` is the width: worker threads in
    process, concurrent benchmark children with a budget.  It defaults
    to one per pending benchmark and is clamped to ``os.cpu_count()``:
    the work is CPU-bound, so width beyond the host's cores adds only
    contention.  Results are width-invariant, so the clamp changes wall
    time, never output.  ``cache`` / ``use_cache``, ``resume`` and
    ``journal_path`` (default ``<cache>/journal/suite.jsonl``) as for
    :func:`~repro.experiments.runner.run_benchmark` and ``pdw suite``.
    """

    def __init__(
        self,
        budget: Optional[RunBudget] = None,
        cache: Optional[ArtifactCache] = None,
        use_cache: bool = True,
        workers: Optional[int] = None,
        resume: bool = False,
        journal_path: Optional[Path] = None,
    ):
        self.budget = budget or RunBudget()
        self.cache = cache if cache is not None else (default_cache() if use_cache else None)
        self.use_cache = use_cache
        self.workers = workers
        self.resume = resume
        self.journal_path = (
            Path(journal_path) if journal_path is not None else default_journal_path(self.cache)
        )
        self._disk = self.cache if self.use_cache else None
        self._cond = threading.Condition()
        self._jbuf: Optional[List[dict]] = None  # active only inside _execute_graph
        #: Inside a benchmark's child: the parent journals and counts the
        #: benchmark-level outcome, so this process must not.
        self._in_child = False

    # -- entry point -------------------------------------------------------------

    def run(
        self, names: Optional[Sequence[str]] = None, config: Optional[PDWConfig] = None
    ) -> SuiteResult:
        """Run the suite; never raises for a single benchmark's failure."""
        suite = list(names or BENCHMARKS)
        cfg = config or default_config()
        digests = {name: run_digest(name, cfg) for name in suite}
        results: Dict[str, object] = {}
        resumed: List[str] = []

        if self.resume:
            done = sched_journal.journaled_successes(
                sched_journal.read_records(self.journal_path)
            )
            for name in suite:
                if done.get(name) != digests[name]:
                    continue
                cached = self._load_journaled(name, cfg)
                if cached is not None:
                    results[name] = cached
                    resumed.append(name)

        pending = [name for name in suite if name not in results]
        if pending:
            width = max(1, min(self.workers or len(pending), os.cpu_count() or 1))
            forks = self.budget.forks
            with span("sched.suite", benchmarks=len(pending), workers=width, forks=forks):
                if forks:
                    self._run_forked(pending, width, cfg, digests, results)
                else:
                    self._execute_graph(pending, width, cfg, digests, results)

        entries = [results[name] for name in suite]
        metrics_path = self._dump_metrics(config_digest=digest_config(cfg))
        return SuiteResult(
            entries=entries,
            journal_path=self.journal_path,
            resumed=tuple(resumed),
            metrics_path=metrics_path,
        )

    # -- one forked child per benchmark (budgeted runs) ---------------------------

    def _run_forked(
        self,
        names: List[str],
        width: int,
        cfg: PDWConfig,
        digests: Dict[str, str],
        results: Dict[str, object],
    ) -> None:
        """Run each benchmark's subgraph in its own child, ``width`` at a time."""
        pending: deque = deque((name, 1) for name in names)
        backoffs: List[Tuple[float, str, int]] = []  # (ready_at, name, attempt)
        active: Dict[str, Tuple[Child, int]] = {}
        try:
            while pending or backoffs or active:
                now = time.monotonic()
                for item in [item for item in backoffs if item[0] <= now]:
                    backoffs.remove(item)
                    pending.append(item[1:])
                while pending and len(active) < width:
                    name, attempt = pending.popleft()
                    active[name] = (self._fork(name, attempt, cfg, digests[name]), attempt)
                finished = [name for name, (child, _) in active.items() if child.done()]
                for name in finished:
                    child, attempt = active.pop(name)
                    self._settle_child(name, attempt, child, cfg, digests, results, backoffs)
                if finished:
                    continue
                wake = [child.deadline for child, _ in active.values()]
                wake += [item[0] for item in backoffs]
                timeout = max(0.0, min(wake) - time.monotonic())
                if active:
                    wait_any(
                        [child for child, _ in active.values()],
                        None if timeout == math.inf else timeout,
                    )
                else:
                    time.sleep(timeout)
        finally:
            # Only reached with children left on an interrupt: take them along.
            for child, _ in active.values():
                child.finish()

    def _fork(self, name: str, attempt: int, cfg: PDWConfig, digest: str) -> Child:
        self._journal_now(
            {
                "event": "attempt",
                "benchmark": name,
                "attempt": attempt,
                "digest": digest,
                "chaos": chaos.environment_token() or None,
            }
        )
        return Child(
            _benchmark_child,
            (name, cfg, digest, self.cache, self.use_cache, self.journal_path, self.budget),
            name=f"pdw-bench-{name}",
            timeout_s=self.budget.timeout_s,
        )

    def _settle_child(
        self, name, attempt, child: Child, cfg, digests, results, backoffs
    ) -> None:
        """Classify one finished child: success, retry, or terminal failure."""
        payload, failure = child.finish(rss_capped=bool(self.budget.max_rss_bytes))
        wall = time.monotonic() - child.started
        entry = None
        if payload is not None:
            entry, snapshot = payload
            self._absorb_metrics(name, attempt, snapshot)
        ended = time.perf_counter()
        ok = isinstance(entry, BenchmarkRun)
        kind = None if ok else (entry.kind if entry is not None else failure[0])
        tracer().record_span(
            "suite.attempt", ended - wall, ended,
            status="ok" if ok else f"fail:{kind}", benchmark=name, attempt=attempt,
        )
        if ok:
            self._settle(name, adopt_run(entry, cfg) if self.use_cache else entry,
                         attempt, wall, digests[name], results)
            return
        obs_metrics.registry().counter("pdw_suite_attempts_total", outcome=kind).inc()
        message = entry.message if entry is not None else failure[1]
        # The child already retried its raised node failures; only a
        # child that died or ran out of time is retried whole.
        if entry is None and kind in RETRYABLE_KINDS and attempt <= self.budget.retries:
            delay = self._backoff(name, attempt)
            obs_metrics.registry().counter("pdw_suite_retries_total", kind=kind).inc()
            self._journal_now(
                {
                    "event": "retry",
                    "benchmark": name,
                    "attempt": attempt,
                    "kind": kind,
                    "message": message,
                    "backoff_s": round(delay, 3),
                }
            )
            backoffs.append((time.monotonic() + delay, name, attempt + 1))
            return
        self._settle(
            name,
            FailureRecord(name=name, kind=kind, message=message,
                          attempts=attempt, wall_time_s=wall),
            attempt, wall, digests[name], results,
        )

    def _absorb_metrics(self, name: str, attempt: int, snapshot) -> None:
        """Merge one child's metrics snapshot and journal it.

        The journal copy makes the merge durable: ``merged_metrics`` can
        rebuild the run-wide dump offline, and a parent that dies after
        journalling loses nothing.
        """
        if not isinstance(snapshot, dict) or not snapshot.get("series"):
            return
        try:
            obs_metrics.registry().merge(snapshot)
        except (TypeError, ValueError):
            return  # a child on mismatched code; drop rather than corrupt
        self._journal_now(
            {"event": "metrics", "benchmark": name, "attempt": attempt, "snapshot": snapshot}
        )

    def _settle(self, name, entry, attempt, wall, digest, results) -> None:
        """Record a benchmark's final outcome: result, journal, counters."""
        results[name] = entry
        if self._in_child:
            return  # the parent records it
        if isinstance(entry, BenchmarkRun):
            obs_metrics.registry().counter("pdw_suite_attempts_total", outcome="ok").inc()
            self._journal(
                {
                    "event": "success",
                    "benchmark": name,
                    "attempt": attempt,
                    "digest": digest,
                    "wall_s": round(wall, 3),
                    "from_cache": entry.from_cache,
                }
            )
            return
        obs_metrics.registry().counter("pdw_suite_failures_total", kind=entry.kind).inc()
        self._journal(
            {
                "event": "failure",
                "benchmark": name,
                "attempt": attempt,
                "digest": digest,
                "kind": entry.kind,
                "message": entry.message,
                "wall_s": round(wall, 3),
            }
        )

    # -- the in-process scheduling loop ------------------------------------------

    def _execute_graph(
        self,
        names: List[str],
        n_workers: int,
        cfg: PDWConfig,
        digests: Dict[str, str],
        results: Dict[str, object],
    ) -> None:
        graph = build_graph(names)
        self._cfg = cfg
        self._states: Dict[str, _NodeState] = {
            node.id: _NodeState(node=node, waiting=set(node.deps)) for node in graph
        }
        self._children: Dict[str, List[str]] = {}
        self._bench_nodes: Dict[str, List[StageNode]] = {}
        for node in graph:
            self._bench_nodes.setdefault(node.benchmark, []).append(node)
            for dep in node.deps:
                self._children.setdefault(dep, []).append(node.id)

        per_bench: Dict[str, int] = {}
        for node in graph:
            per_bench[node.benchmark] = per_bench.get(node.benchmark, 0) + 1
        self._benches: Dict[str, _Bench] = {}
        for index, name in enumerate(names):
            bench = _Bench(
                name=name, index=index, digest=digests[name], remaining=per_bench[name]
            )
            bench.main_run = PipelineRun(label=f"bench:{name}", cache=self._disk)
            bench.pdw_run = PipelineRun(label=f"PDW:{name}", cache=self._disk)
            bench.dawo_run = PipelineRun(label=f"DAWO:{name}", cache=self._disk)
            self._benches[name] = bench

        self._ready: List[Tuple] = []
        self._completions: deque = deque()
        self._stop = False
        self._jbuf: Optional[List[dict]] = []  # buffered journal records
        backoffs: List[Tuple[float, str]] = []  # (ready_at_monotonic, node_id)
        outstanding = len(graph)

        with self._cond:
            for node in graph:
                if not self._states[node.id].waiting:
                    self._make_ready(node.id)

        threads = [
            threading.Thread(
                target=self._worker_loop, name=f"sched-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for thread in threads:
            thread.start()

        try:
            while outstanding > 0:
                with self._cond:
                    now = time.monotonic()
                    due = [item for item in backoffs if item[0] <= now]
                    for item in due:
                        backoffs.remove(item)
                        self._make_ready(item[1])
                    if not self._completions:
                        self._cond.wait(0.05)
                    while self._completions:
                        item = self._completions.popleft()
                        outstanding -= self._complete(
                            *item, backoffs=backoffs, results=results, digests=digests,
                        )
                self._flush_journal()
        finally:
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            for thread in threads:
                thread.join()
            self._flush_journal()
            self._jbuf = None

    def _make_ready(self, nid: str) -> None:
        """Push a node onto the ready heap (caller holds the lock)."""
        st = self._states[nid]
        st.status = "ready"
        st.ready_at = time.perf_counter()
        heapq.heappush(self._ready, (st.node.sort_key, nid, st.attempt + 1))
        obs_metrics.registry().gauge("pdw_sched_ready_queue_depth").set(
            float(len(self._ready))
        )
        # notify_all, not notify: workers and the completion loop share the
        # condition, and a single notify may wake the loop instead of a
        # worker — stalling a ready node for a full worker poll interval.
        self._cond.notify_all()

    # -- worker pool -------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not self._ready:
                    self._cond.wait(0.2)
                if self._stop:
                    return
                _, nid, attempt = heapq.heappop(self._ready)
                st = self._states[nid]
                st.status = "running"
                st.attempt = attempt
                obs_metrics.registry().gauge("pdw_sched_ready_queue_depth").set(
                    float(len(self._ready))
                )
            node = st.node
            bench = self._benches[node.benchmark]
            self._journal_now(
                {
                    "event": "node_attempt",
                    "benchmark": node.benchmark,
                    "node": node.id,
                    "stage": node.stage,
                    "method": node.method,
                    "attempt": attempt,
                    "chaos": chaos.environment_token() or None,
                }
            )
            started = time.perf_counter()
            try:
                with chaos.scope(node.benchmark):
                    origin = self._execute_node(node, bench)
                outcome: tuple = ("ok", origin)
            except chaos.InjectedFault as exc:
                outcome = ("fail", "crash", str(exc))
            except MemoryError:
                outcome = ("fail", "oom", "MemoryError while running stage")
            except DegradedInfeasibleError as exc:
                outcome = ("fail", "infeasible_degraded", str(exc))
            except ReproError as exc:
                outcome = ("fail", "error", str(exc))
            except BaseException as exc:  # noqa: BLE001 — a worker must always report
                outcome = ("fail", "crash", f"{type(exc).__name__}: {exc}")
            ended = time.perf_counter()
            with self._cond:
                self._completions.append((nid, outcome, started, ended))
                self._cond.notify_all()

    # -- node execution (worker threads) -----------------------------------------

    def _execute_node(self, node: StageNode, bench: _Bench) -> str:
        """Run one node; returns the artifact origin for journal/metrics."""
        if bench.run is not None:
            return "skipped"  # whole-run cache/memo hit short-circuits
        if node.method == RUN:
            return self._collect(bench)
        if node.stage == "synthesis":
            return self._synthesis(bench)
        if node.method == SHARED:  # the PDW↔DAWO shared replay
            return self._replay(bench)
        ctx, run = (
            (bench.pdw_ctx, bench.pdw_run)
            if node.method == "pdw"
            else (bench.dawo_ctx, bench.dawo_run)
        )
        if node.method == "pdw" and bench.pdw_short:
            return "skipped"  # no-wash-needed early exit
        stage = node.stage_obj
        artifact = run.run_stage(stage, ctx)
        stage.apply(ctx, artifact)
        self._post_stage(node, bench, ctx, run, artifact)
        rec = run.report.get(stage.name)
        return rec.origin if rec is not None else "computed"

    def _synthesis(self, bench: _Bench) -> str:
        """The benchmark's root node: cache probes, then baseline synthesis."""
        bench.started = time.perf_counter()
        name = bench.name
        cfg = self._cfg
        if self.use_cache:
            hit = memo_lookup(name, cfg)
            if hit is not None:
                bench.run = hit
                return "memo"
            if self._disk is not None:
                stored = self._disk.get(bench.digest)
                if isinstance(stored, BenchmarkRun):
                    stored.from_cache = True
                    obs_metrics.registry().counter(
                        "pdw_run_cache_hits_total", benchmark=name
                    ).inc()
                    bench.run = adopt_run(stored, cfg)
                    return "cache"
        spec = benchmark(name)
        assay = load_benchmark(name)
        synthesis = bench.main_run.timed(
            "synthesis",
            lambda: synthesize(assay, inventory=spec.inventory),
            counters=lambda s: {
                "operations": float(assay.operation_count),
                "devices": float(s.device_count),
                "baseline_makespan_s": float(s.baseline_makespan),
            },
        )
        bench.synthesis = synthesis
        bench.pdw_ctx = PDWContext(synthesis=synthesis, config=cfg, cache=self.cache)
        bench.dawo_ctx = PDWContext(
            synthesis=synthesis, config=DAWO_CONFIG, cache=self.cache
        )
        bench.pdw_run.report.label = f"PDW:{synthesis.assay.name}"
        bench.dawo_run.report.label = f"DAWO:{synthesis.assay.name}"
        return "computed"

    def _replay(self, bench: _Bench) -> str:
        """The shared replay node: computed once, handed to both methods."""
        tracker = bench.main_run.run_stage(REPLAY_STAGE, bench.pdw_ctx)
        bench.pdw_ctx.tracker = tracker
        bench.dawo_ctx.tracker = tracker
        counters = REPLAY_STAGE.counters(tracker)
        bench.pdw_run.provided(REPLAY_STAGE.name, counters)
        bench.dawo_run.provided(REPLAY_STAGE.name, counters)
        rec = bench.main_run.report.get(REPLAY_STAGE.name)
        return rec.origin if rec is not None else "computed"

    def _post_stage(
        self, node: StageNode, bench: _Bench, ctx: PDWContext, run: PipelineRun, artifact
    ) -> None:
        """Method-chain epilogues, mirroring the serial orchestrators.

        The finish sequences (report attach → notes → verify → validate)
        replicate :class:`~repro.core.pdw.PathDriverWash` and
        :class:`~repro.baselines.dawo.DelayAwareWashOptimizer` exactly, so
        DAG-built plans are byte-identical to serially-built ones.
        """
        key = (node.method, node.stage)
        if key == ("pdw", "necessity"):
            if not ctx.necessity.required:
                plan = no_wash_plan(ctx)
                plan.report = run.report
                plan.notes.update(run.report.flat())
                bench.pdw_plan = plan
                bench.pdw_short = True
        elif key == ("pdw", "ilp"):
            record_ilp_rows(run, artifact)
        elif key == ("pdw", "assemble"):
            artifact.report = run.report
            artifact.notes.update(run.report.flat())
            degradation = getattr(artifact, "degradation", None)
            verify_plan(artifact, degradation=degradation)
            validate_plan(artifact, ctx.synthesis, degradation=degradation)
            bench.pdw_plan = artifact
        elif key == ("dawo", "sweepline"):
            artifact.notes["necessity_events"] = float(ctx.necessity.total_events)
            artifact.notes["requirements"] = float(len(ctx.necessity.required))
            artifact.report = run.report
            artifact.notes.update(run.report.flat())
            verify_plan(artifact)
            validate_plan(artifact, ctx.synthesis)
            bench.dawo_plan = artifact

    def _collect(self, bench: _Bench) -> str:
        """The benchmark's sink node: merge reports, cache and memoize."""
        # Attach each node's queue wait to its stage record now — after
        # every plan's ``notes`` snapshot was taken (plan notes must match
        # serial execution byte for byte) and before the merge below
        # copies the records into the run-level report that ``pdw report
        # timings`` renders.  All of this benchmark's nodes are terminal
        # before collect becomes ready, so the waits are final.
        for other in self._bench_nodes[bench.name]:
            st = self._states[other.id]
            if st.queue_wait is None:
                continue
            rec = self._node_record(other, bench)
            if rec is not None:
                rec.counters["queue_wait_s"] = round(st.queue_wait, 6)
        report = bench.main_run.report
        report.extend(bench.dawo_run.report, prefix="dawo.")
        report.extend(bench.pdw_run.report, prefix="pdw.")
        run = BenchmarkRun(
            name=bench.name,
            synthesis=bench.synthesis,
            dawo=bench.dawo_plan,
            pdw=bench.pdw_plan,
            wall_time_s=time.perf_counter() - bench.started,
            report=report,
        )
        if self._disk is not None:
            self._disk.put(bench.digest, run)
        if self.use_cache:
            run = adopt_run(run, self._cfg)
        bench.run = run
        return "computed"

    # -- completion handling (main thread, lock held) ----------------------------

    def _complete(
        self, nid, outcome, started, ended, *, backoffs, results, digests
    ) -> int:
        """Absorb one worker completion; returns nodes newly terminal."""
        st = self._states[nid]
        node = st.node
        bench = self._benches[node.benchmark]
        if outcome[0] == "ok":
            st.status = "done"
            origin = outcome[1]
            wait = max(0.0, started - st.ready_at)
            st.queue_wait = wait
            # Unblock successors BEFORE any bookkeeping I/O: the journal
            # append releases the GIL per syscall, and winning it back
            # from a computing worker costs up to a switch interval —
            # latency that must not gate ready-to-run nodes.  Crash
            # semantics are unchanged (dying before the append just
            # re-runs this node on resume; execution is at-least-once).
            for cid in self._children.get(nid, ()):
                child = self._states[cid]
                child.waiting.discard(nid)
                if not child.waiting and child.status == "pending":
                    self._make_ready(cid)
            obs_metrics.registry().histogram(
                "pdw_sched_queue_wait_seconds", stage=node.stage
            ).observe(wait)
            self._journal(
                {
                    "event": "node_success",
                    "benchmark": node.benchmark,
                    "node": node.id,
                    "stage": node.stage,
                    "method": node.method,
                    "attempt": st.attempt,
                    "origin": origin,
                    "wall_s": round(ended - started, 6),
                    "queue_wait_s": round(wait, 6),
                }
            )
            tracer().record_span(
                "sched.node", started, ended, status="ok",
                benchmark=node.benchmark, method=node.method, stage=node.stage,
                attempt=st.attempt, origin=origin,
            )
            self._finalize_node(bench, results, digests)
            return 1
        kind, message = outcome[1], outcome[2]
        if kind in RETRYABLE_KINDS and st.attempt <= self.budget.retries:
            st.status = "backoff"
            delay = self._backoff(node.id, st.attempt)
            obs_metrics.registry().counter("pdw_suite_retries_total", kind=kind).inc()
            self._journal(
                {
                    "event": "node_retry",
                    "benchmark": node.benchmark,
                    "node": node.id,
                    "stage": node.stage,
                    "method": node.method,
                    "attempt": st.attempt,
                    "kind": kind,
                    "message": message,
                    "backoff_s": round(delay, 3),
                }
            )
            backoffs.append((time.monotonic() + delay, nid))
            return 0
        return self._fail_node(
            st, bench, kind, message, started, ended, results, digests
        )

    def _fail_node(
        self, st: _NodeState, bench: _Bench, kind, message, started, ended,
        results, digests,
    ) -> int:
        """Terminal node failure: record it, cancel transitive dependents."""
        node = st.node
        st.status = "failed"
        self._journal(
            {
                "event": "node_failure",
                "benchmark": node.benchmark,
                "node": node.id,
                "stage": node.stage,
                "method": node.method,
                "attempt": st.attempt,
                "kind": kind,
                "message": message,
                "wall_s": round(ended - started, 6),
            }
        )
        tracer().record_span(
            "sched.node", started, ended, status=f"fail:{kind}",
            benchmark=node.benchmark, method=node.method, stage=node.stage,
            attempt=st.attempt,
        )
        if bench.failure is None:
            wall = time.perf_counter() - bench.started if bench.started else 0.0
            bench.failure = FailureRecord(
                name=bench.name, kind=kind, message=message,
                attempts=st.attempt, wall_time_s=wall,
            )
        terminal = 1
        self._finalize_node(bench, results, digests)
        queue = list(self._children.get(node.id, ()))
        while queue:
            cid = queue.pop(0)
            child = self._states[cid]
            if child.status in ("done", "failed", "cancelled"):
                continue
            child.status = "cancelled"
            self._journal(
                {
                    "event": "node_cancelled",
                    "benchmark": child.node.benchmark,
                    "node": cid,
                    "stage": child.node.stage,
                    "method": child.node.method,
                    "by": node.id,
                }
            )
            self._finalize_node(
                self._benches[child.node.benchmark], results, digests
            )
            terminal += 1
            queue.extend(self._children.get(cid, ()))
        return terminal

    def _finalize_node(self, bench: _Bench, results, digests) -> None:
        """One node of ``bench`` went terminal; settle it at zero remaining."""
        bench.remaining -= 1
        if bench.remaining > 0:
            return
        wall = time.perf_counter() - bench.started if bench.started else 0.0
        entry = bench.run or bench.failure or FailureRecord(
            name=bench.name, kind="error", message="benchmark produced no result"
        )
        attempt = bench.failure.attempts if bench.run is None and bench.failure else 1
        self._settle(bench.name, entry, attempt, wall, digests[bench.name], results)

    def _node_record(self, node: StageNode, bench: _Bench):
        """The StageRecord a node produced, for the queue-wait attach."""
        if node.method == RUN:
            return None
        if node.method == SHARED:
            return bench.main_run.report.get(node.stage)
        run = bench.pdw_run if node.method == "pdw" else bench.dawo_run
        return run.report.get(node.stage) if run is not None else None

    # -- journal, backoff, resume, metrics dump ----------------------------------

    def _journal_now(self, record: dict) -> None:
        sched_journal.append_record(self.journal_path, record)

    def _journal(self, record: dict) -> None:
        """Record one journal event, buffered while the completion loop runs.

        Everything the completion loop journals happens with the scheduler
        lock held, and each append releases the GIL per syscall — latency
        that would gate ready successors and worker pickup.  So while the
        loop is active the records are buffered (stamped with their true
        event time) and flushed outside the lock once per loop iteration.
        The worker-side ``node_attempt`` write stays synchronous via
        :meth:`_journal_now` — it must hit the journal *before* execution
        so an interruption shows what was in flight.
        """
        if self._jbuf is not None:
            self._jbuf.append({"ts": time.time(), **record})
        else:
            self._journal_now(record)

    def _flush_journal(self) -> None:
        """Write buffered records (called WITHOUT the scheduler lock)."""
        buf = self._jbuf
        if buf:
            self._jbuf = []
            for record in buf:
                self._journal_now(record)

    def _backoff(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seeded by
        ``REPRO_FAULT_SEED`` so chaos tests replay identically), keyed by
        node id or benchmark name."""
        base = self.budget.backoff_base_s * (2 ** (attempt - 1))
        seed = os.environ.get(faults.ENV_SEED, "0")
        jitter = random.Random(f"{seed}:{key}:{attempt}").random()
        return min(self.budget.backoff_cap_s, base * (1.0 + jitter))

    def _load_journaled(self, name: str, cfg: PDWConfig) -> Optional[BenchmarkRun]:
        """Serve a journaled success from the artifact cache, if intact."""
        if self.cache is None or not self.use_cache:
            return None
        stored = self.cache.get(run_digest(name, cfg))
        if not isinstance(stored, BenchmarkRun):
            return None
        stored.from_cache = True
        return adopt_run(stored, cfg)

    def _dump_metrics(self, config_digest: str = "") -> Path:
        """Write the run-wide metrics dump next to the journal."""
        path = self.journal_path.parent / "metrics.json"
        payload = {
            **obs_metrics.snapshot(),
            "config_digest": config_digest,
            "journal": str(self.journal_path),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        return path


def _benchmark_child(conn, name, cfg, digest, cache, use_cache, journal_path, budget) -> None:
    """A budgeted benchmark's child: run its subgraph in process, report, exit.

    Sends ``(BenchmarkRun or FailureRecord, metrics snapshot)``.  The
    child journals its ``node_*`` events and retries raised node failures
    itself; the parent journals the benchmark-level outcome, enforces the
    wall-clock budget and classifies a child that dies without reporting.
    """
    # The forked registry holds the parent's series; start empty so the
    # parent-side merge adds only this benchmark's work.
    obs_metrics.reset()
    if budget.max_rss_bytes:
        try:
            import resource

            resource.setrlimit(
                resource.RLIMIT_AS, (budget.max_rss_bytes, budget.max_rss_bytes)
            )
        except (ImportError, ValueError, OSError):
            pass  # best-effort: not every platform allows it
    executor = DagExecutor(
        budget=dataclasses.replace(budget, timeout_s=None, max_rss_bytes=None),
        cache=cache, use_cache=use_cache, journal_path=journal_path,
    )
    executor._in_child = True
    results: Dict[str, object] = {}
    try:
        executor._execute_graph([name], 1, cfg, {name: digest}, results)
        entry = results[name]
    except MemoryError:
        entry = FailureRecord(name, "oom", "MemoryError while running benchmark")
    except BaseException as exc:  # noqa: BLE001 — a child must always report
        entry = FailureRecord(name, "crash", f"{type(exc).__name__}: {exc}")
    safe_send(conn, (entry, obs_metrics.snapshot()))
    conn.close()
    # Skip interpreter teardown: the journal and the cache are written
    # through already, and the worker thread has stopped.
    os._exit(0)
