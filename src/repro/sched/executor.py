"""The one suite engine: a worklist of benchmarks, each one ``run_benchmark``.

:class:`SuiteExecutor` runs every suite — ``pdw suite`` and
``run_suite`` (Table II, Fig. 4/5, timings).  Every attempt at a benchmark is one
:func:`~repro.experiments.runner.run_benchmark` call
(:func:`attempt_benchmark`), run one of two ways, chosen by the
:class:`~repro.sched.journal.RunBudget`:

* **without a budget**, inline in this process, one benchmark at a time;
* **with a wall-clock or address-space budget** (``pdw suite`` always
  has one), in a forked child (:class:`repro.procutil.Child`) whose main
  thread calls ``run_benchmark`` and sends back its ``BenchmarkRun`` (or
  failure) and metrics snapshot.  Up to ``workers`` children run at
  once; the parent kills a child past ``timeout_s``, caps its address
  space with ``setrlimit`` and classifies a child that dies without
  reporting as ``crash``/``oom``.  A timeout always kills a process.

Both ways share one journal / retry / backoff / settle path.  A failure
of a retryable kind (``crash``, ``timeout``) retries the whole benchmark
with backoff, up to ``budget.retries`` times; with the artifact cache on,
the retry gets every stage that finished before the failure back from
the per-stage cache instead of recomputing it.  ``resume=True`` replays
journaled benchmark successes from the cache without re-execution.
While an attempt runs, its process journals one ``stage`` record per
pipeline stage (:func:`repro.sched.journal.stage_journal`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import BENCHMARKS
from repro.core import PDWConfig
from repro.experiments.runner import (
    BenchmarkRun,
    FailureRecord,
    SuiteEntry,
    SuiteResult,
    adopt_run,
    classify_failure,
    default_config,
    run_benchmark,
    run_digest,
)
from repro.ilp import faults
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span, tracer
from repro.pipeline import ArtifactCache, chaos, default_cache, digest_config
from repro.procutil import Child, safe_send, wait_any
from repro.sched import journal as sched_journal
from repro.sched.journal import RETRYABLE_KINDS, RunBudget


class SuiteExecutor:
    """The suite engine: a benchmark worklist, inline or one fork per attempt.

    ``run`` takes the benchmark names and config and returns a
    :class:`~repro.experiments.runner.SuiteResult` in suite order.

    ``budget`` holds the retry policy and, when it sets ``timeout_s`` or
    ``max_rss_bytes``, makes each attempt run in a forked child held to
    those limits.  ``workers`` is how many children run at once (forked
    runs only; inline runs take one benchmark at a time).  It defaults
    to one per pending benchmark and is clamped to ``os.cpu_count()``:
    the work is CPU-bound, so width beyond the host's cores adds only
    contention.  ``cache`` / ``use_cache`` as for
    :func:`~repro.experiments.runner.run_benchmark`.  ``journal_path`` is
    the run journal the attempts, outcomes and stage records go to, with
    the metrics dump written next to it; ``None`` writes neither, and
    ``resume`` needs one to read successes from.
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
        self.journal_path = Path(journal_path) if journal_path is not None else None

    def run(
        self, names: Optional[Sequence[str]] = None, config: Optional[PDWConfig] = None
    ) -> SuiteResult:
        """Run the suite; never raises for a single benchmark's failure."""
        suite = list(names or BENCHMARKS)
        cfg = config or default_config()
        digests = {name: run_digest(name, cfg) for name in suite}
        results: Dict[str, SuiteEntry] = {}
        resumed: List[str] = []

        if self.resume and self.journal_path is not None:
            done = sched_journal.journaled_successes(
                sched_journal.read_records(self.journal_path)
            )
            for name in suite:
                if done.get(name) != digests[name]:
                    continue
                cached = self._load_journaled(digests[name], cfg)
                if cached is not None:
                    results[name] = cached
                    resumed.append(name)

        pending = [name for name in suite if name not in results]
        if pending:
            forks = self.budget.forks
            width = 1
            if forks:
                width = max(1, min(self.workers or len(pending), os.cpu_count() or 1))
            with span("sched.suite", benchmarks=len(pending), workers=width, forks=forks):
                self._run_worklist(pending, width, cfg, digests, results)

        metrics_path = None
        if self.journal_path is not None:
            metrics_path = self._dump_metrics(config_digest=digest_config(cfg))
        return SuiteResult(
            entries=[results[name] for name in suite],
            journal_path=self.journal_path,
            resumed=tuple(resumed),
            metrics_path=metrics_path,
        )

    # -- the worklist --------------------------------------------------------------

    def _run_worklist(
        self,
        names: List[str],
        width: int,
        cfg: PDWConfig,
        digests: Dict[str, str],
        results: Dict[str, SuiteEntry],
    ) -> None:
        """Attempt every benchmark, ``width`` children at a time, until each
        has a result or a terminal failure."""
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
                    self._journal(
                        {
                            "event": "attempt",
                            "benchmark": name,
                            "attempt": attempt,
                            "digest": digests[name],
                            "chaos": chaos.environment_token() or None,
                        }
                    )
                    if self.budget.forks:
                        active[name] = (self._fork(name, cfg), attempt)
                        continue
                    started = time.monotonic()
                    entry = attempt_benchmark(
                        name, cfg, self.cache, self.use_cache, self.journal_path
                    )
                    self._settle(name, attempt, entry, time.monotonic() - started,
                                 cfg, digests[name], results, backoffs)
                finished = [name for name, (child, _) in active.items() if child.done()]
                for name in finished:
                    child, attempt = active.pop(name)
                    entry = self._collect(name, attempt, child)
                    self._settle(name, attempt, entry, time.monotonic() - child.started,
                                 cfg, digests[name], results, backoffs)
                if finished or not (active or backoffs):
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

    def _fork(self, name: str, cfg: PDWConfig) -> Child:
        return Child(
            _benchmark_child,
            (name, cfg, self.cache, self.use_cache, self.journal_path,
             self.budget.max_rss_bytes),
            name=f"pdw-bench-{name}",
            timeout_s=self.budget.timeout_s,
        )

    def _collect(self, name: str, attempt: int, child: Child) -> SuiteEntry:
        """A finished child's entry: what it sent, or why it sent nothing."""
        payload, failure = child.finish(rss_capped=bool(self.budget.max_rss_bytes))
        if payload is None:
            kind, message = failure
            return FailureRecord(name=name, kind=kind, message=message)
        entry, snapshot = payload
        self._absorb_metrics(name, attempt, snapshot)
        return entry

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
        self._journal(
            {"event": "metrics", "benchmark": name, "attempt": attempt, "snapshot": snapshot}
        )

    def _settle(
        self, name, attempt, entry: SuiteEntry, wall, cfg, digest, results, backoffs
    ) -> None:
        """Record one finished attempt: success, retry, or terminal failure."""
        ok = isinstance(entry, BenchmarkRun)
        outcome = "ok" if ok else entry.kind
        ended = time.perf_counter()
        tracer().record_span(
            "suite.attempt", ended - wall, ended,
            status="ok" if ok else f"fail:{outcome}", benchmark=name, attempt=attempt,
        )
        registry = obs_metrics.registry()
        registry.counter("pdw_suite_attempts_total", outcome=outcome).inc()
        if ok:
            results[name] = adopt_run(entry, cfg) if self.use_cache else entry
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
        if entry.kind in RETRYABLE_KINDS and attempt <= self.budget.retries:
            delay = self._backoff(name, attempt)
            registry.counter("pdw_suite_retries_total", kind=entry.kind).inc()
            self._journal(
                {
                    "event": "retry",
                    "benchmark": name,
                    "attempt": attempt,
                    "kind": entry.kind,
                    "message": entry.message,
                    "backoff_s": round(delay, 3),
                }
            )
            backoffs.append((time.monotonic() + delay, name, attempt + 1))
            return
        registry.counter("pdw_suite_failures_total", kind=entry.kind).inc()
        results[name] = dataclasses.replace(entry, attempts=attempt, wall_time_s=wall)
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

    # -- journal, backoff, resume, metrics dump ----------------------------------

    def _journal(self, record: dict) -> None:
        if self.journal_path is not None:
            sched_journal.append_record(self.journal_path, record)

    def _backoff(self, name: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seeded by
        ``REPRO_FAULT_SEED`` so chaos tests replay identically)."""
        base = self.budget.backoff_base_s * (2 ** (attempt - 1))
        seed = os.environ.get(faults.ENV_SEED, "0")
        jitter = random.Random(f"{seed}:{name}:{attempt}").random()
        return min(self.budget.backoff_cap_s, base * (1.0 + jitter))

    def _load_journaled(self, digest: str, cfg: PDWConfig) -> Optional[BenchmarkRun]:
        """Serve a journaled success from the artifact cache, if intact."""
        if self.cache is None or not self.use_cache:
            return None
        stored = self.cache.get(digest)
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


def attempt_benchmark(
    name: str,
    cfg: PDWConfig,
    cache: Optional[ArtifactCache],
    use_cache: bool,
    journal_path: Optional[Path],
) -> SuiteEntry:
    """One attempt at one benchmark: ``run_benchmark`` with its stages
    journaled to ``journal_path``; a raised error becomes a
    :class:`FailureRecord` of the kind :func:`classify_failure` gives it."""
    started = time.perf_counter()
    try:
        with sched_journal.stage_journal(journal_path, name):
            return run_benchmark(name, cfg, use_cache=use_cache, cache=cache)
    except Exception as exc:  # noqa: BLE001 — every failure becomes a record
        kind, message = classify_failure(exc)
        return FailureRecord(
            name=name, kind=kind, message=message,
            wall_time_s=time.perf_counter() - started,
        )


def _benchmark_child(conn, name, cfg, cache, use_cache, journal_path, max_rss_bytes) -> None:
    """A budgeted attempt's child: run the benchmark, report, exit.

    Sends ``(BenchmarkRun or FailureRecord, metrics snapshot)``; the
    parent journals the outcome, enforces the wall-clock budget and
    classifies a child that dies without reporting.
    """
    # The forked registry holds the parent's series; start empty so the
    # parent-side merge adds only this benchmark's work.
    obs_metrics.reset()
    if max_rss_bytes:
        try:
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (max_rss_bytes, max_rss_bytes))
        except (ImportError, ValueError, OSError):
            pass  # best-effort: not every platform allows it
    entry = attempt_benchmark(name, cfg, cache, use_cache, journal_path)
    safe_send(conn, (entry, obs_metrics.snapshot()))
    conn.close()
    # Skip interpreter teardown: the journal and the cache are written
    # through already.
    os._exit(0)
