"""The one suite engine: a worklist of benchmarks or degradation cells.

:class:`SuiteExecutor` runs every suite — ``pdw suite`` (with or without
``--degrade``) and ``run_suite`` (Table II, Fig. 4/5, timings).  Every
attempt (:func:`attempt_item`) at a benchmark is one
:func:`~repro.experiments.runner.run_benchmark` call, at a degradation
matrix :class:`~repro.degrade.suite.Cell` one ``Cell.plan``, run one of
two ways, chosen by the :class:`~repro.sched.journal.RunBudget`:

* **without a budget**, inline in this process, one item at a time;
* **with a wall-clock or address-space budget** (``pdw suite`` always
  has one), in a forked child (:class:`repro.procutil.Child`) whose main
  thread makes the attempt and sends back its result (or failure) and
  metrics snapshot.  Up to ``workers`` children run at
  once; the parent kills a child past ``timeout_s``, caps its address
  space with ``setrlimit`` and classifies a child that dies without
  reporting as ``crash``/``oom``.  A timeout always kills a process.

Both ways share one journal / retry / backoff / settle path.  A failure
of a retryable kind (``crash``, ``timeout``) retries the whole item
with backoff, up to ``budget.retries`` times; with the artifact cache on,
the retry gets every stage that finished before the failure back from
the per-stage cache instead of recomputing it.  A cell's terminal
record is its ``degrade`` row in place of ``success``/``failure``.
``resume=True`` skips items journaled done under the same digest.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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

if TYPE_CHECKING:
    from repro.degrade.suite import Cell, DegradeRow

#: A work item: a benchmark name or a :class:`~repro.degrade.suite.Cell`.
Item = Union[str, "Cell"]


class SuiteExecutor:
    """The suite engine: a worklist, inline or one fork per attempt.

    ``run`` takes the work items (benchmark names or degradation cells)
    and config and returns a
    :class:`~repro.experiments.runner.SuiteResult` in suite order: a
    ``BenchmarkRun`` or ``FailureRecord`` per benchmark, a ``DegradeRow``
    per cell.

    ``budget`` holds the retry policy and, when it sets ``timeout_s`` or
    ``max_rss_bytes``, makes each attempt run in a forked child held to
    those limits.  ``workers`` is how many children run at once (forked
    runs only; inline runs take one item at a time).  It defaults
    to one per pending item and is clamped to ``os.cpu_count()``:
    the work is CPU-bound, so width beyond the host's cores adds only
    contention.  ``cache`` / ``use_cache`` as for
    :func:`~repro.experiments.runner.run_benchmark`.  ``journal_path`` is
    the run journal the attempts, outcomes and stage records go to, with
    a benchmark suite's metrics dump written next to it; ``None`` writes
    neither, and ``resume`` needs one to read finished items from.
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
        self, items: Optional[Sequence[Item]] = None, config: Optional[PDWConfig] = None
    ) -> SuiteResult:
        """Run the suite; never raises for a single item's failure."""
        suite = list(items or BENCHMARKS)
        cfg = config or default_config()
        digests = {
            item: run_digest(item, cfg) if isinstance(item, str) else item.digest(cfg)
            for item in suite
        }
        results: Dict[Item, object] = {}
        resumed: List[Item] = []

        if self.resume and self.journal_path is not None:
            done = sched_journal.journaled_successes(
                sched_journal.read_records(self.journal_path)
            )
            for item in suite:
                fields = _fields(item)
                record = done.get((fields["benchmark"], fields.get("scenario")))
                if record is None or record.get("digest") != digests[item]:
                    continue
                entry = self._load_journaled(item, record, cfg)
                if entry is not None:
                    results[item] = entry
                    resumed.append(item)

        pending = [item for item in suite if item not in results]
        if pending:
            forks = self.budget.forks
            width = 1
            if forks:
                width = max(1, min(self.workers or len(pending), os.cpu_count() or 1))
            with span("sched.suite", benchmarks=len(pending), workers=width, forks=forks):
                self._run_worklist(pending, width, cfg, digests, results)

        metrics_path = None
        # A matrix's cells plan under as many configs as it has scenarios,
        # and `pdw report degrade` reads their journal: only a benchmark
        # suite writes a run-wide dump for its one config.
        if self.journal_path is not None and all(isinstance(i, str) for i in suite):
            metrics_path = self._dump_metrics(config_digest=digest_config(cfg))
        return SuiteResult(
            entries=[results[item] for item in suite],
            journal_path=self.journal_path,
            resumed=tuple(resumed),
            metrics_path=metrics_path,
        )

    # -- the worklist --------------------------------------------------------------

    def _run_worklist(
        self,
        items: List[Item],
        width: int,
        cfg: PDWConfig,
        digests: Dict[Item, str],
        results: Dict[Item, object],
    ) -> None:
        """Attempt every item, ``width`` children at a time, until each
        has a result or a terminal failure."""
        pending: deque = deque((item, 1) for item in items)
        backoffs: List[Tuple[float, Item, int]] = []  # (ready_at, item, attempt)
        active: Dict[Item, Tuple[Child, int]] = {}
        try:
            while pending or backoffs or active:
                now = time.monotonic()
                for entry in [entry for entry in backoffs if entry[0] <= now]:
                    backoffs.remove(entry)
                    pending.append(entry[1:])
                while pending and len(active) < width:
                    item, attempt = pending.popleft()
                    self._journal(
                        {
                            "event": "attempt",
                            **_fields(item),
                            "attempt": attempt,
                            "digest": digests[item],
                            "chaos": chaos.environment_token() or None,
                        }
                    )
                    if self.budget.forks:
                        active[item] = (self._fork(item, cfg), attempt)
                        continue
                    started = time.monotonic()
                    entry = attempt_item(
                        item, cfg, self.cache, self.use_cache, self.journal_path
                    )
                    self._settle(item, attempt, entry, time.monotonic() - started,
                                 cfg, digests[item], results, backoffs)
                finished = [item for item, (child, _) in active.items() if child.done()]
                for item in finished:
                    child, attempt = active.pop(item)
                    entry = self._collect(item, attempt, child)
                    self._settle(item, attempt, entry, time.monotonic() - child.started,
                                 cfg, digests[item], results, backoffs)
                if finished or not (active or backoffs):
                    continue
                wake = [child.deadline for child, _ in active.values()]
                wake += [entry[0] for entry in backoffs]
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

    def _fork(self, item: Item, cfg: PDWConfig) -> Child:
        return Child(
            _attempt_child,
            (item, cfg, self.cache, self.use_cache, self.journal_path,
             self.budget.max_rss_bytes),
            name=f"pdw-bench-{_label(item)}",
            timeout_s=self.budget.timeout_s,
        )

    def _collect(self, item: Item, attempt: int, child: Child) -> SuiteEntry:
        """A finished child's entry: what it sent, or why it sent nothing."""
        payload, failure = child.finish(rss_capped=bool(self.budget.max_rss_bytes))
        if payload is None:
            kind, message = failure
            return FailureRecord(name=_fields(item)["benchmark"], kind=kind, message=message)
        entry, snapshot = payload
        self._absorb_metrics(item, attempt, snapshot)
        return entry

    def _absorb_metrics(self, item: Item, attempt: int, snapshot) -> None:
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
            {"event": "metrics", **_fields(item), "attempt": attempt, "snapshot": snapshot}
        )

    def _settle(
        self, item, attempt, entry, wall, cfg, digest, results, backoffs
    ) -> None:
        """Record one finished attempt: success, retry, or terminal failure."""
        ok = not isinstance(entry, FailureRecord)
        outcome = "ok" if ok else entry.kind
        ended = time.perf_counter()
        tracer().record_span(
            "suite.attempt", ended - wall, ended,
            status="ok" if ok else f"fail:{outcome}", benchmark=_label(item), attempt=attempt,
        )
        registry = obs_metrics.registry()
        registry.counter("pdw_suite_attempts_total", outcome=outcome).inc()
        if not ok and entry.kind in RETRYABLE_KINDS and attempt <= self.budget.retries:
            delay = self._backoff(_label(item), attempt)
            registry.counter("pdw_suite_retries_total", kind=entry.kind).inc()
            self._journal(
                {
                    "event": "retry",
                    **_fields(item),
                    "attempt": attempt,
                    "kind": entry.kind,
                    "message": entry.message,
                    "backoff_s": round(delay, 3),
                }
            )
            backoffs.append((time.monotonic() + delay, item, attempt + 1))
            return
        if not ok:
            registry.counter("pdw_suite_failures_total", kind=entry.kind).inc()
        if not isinstance(item, str):
            results[item] = item.finished(entry, wall)
            record = results[item].as_record()
        elif ok:
            results[item] = adopt_run(entry, cfg) if self.use_cache else entry
            record = {"event": "success", "from_cache": entry.from_cache, "wall_s": round(wall, 3)}
        else:
            results[item] = dataclasses.replace(entry, attempts=attempt, wall_time_s=wall)
            record = {"event": "failure", "kind": entry.kind, "message": entry.message,
                      "wall_s": round(wall, 3)}
        self._journal({**record, **_fields(item), "attempt": attempt, "digest": digest})

    # -- journal, backoff, resume, metrics dump ----------------------------------

    def _journal(self, record: dict) -> None:
        if self.journal_path is not None:
            sched_journal.append_record(self.journal_path, record)

    def _backoff(self, label: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seeded by
        ``REPRO_FAULT_SEED`` so chaos tests replay identically)."""
        base = self.budget.backoff_base_s * (2 ** (attempt - 1))
        seed = os.environ.get(faults.ENV_SEED, "0")
        jitter = random.Random(f"{seed}:{label}:{attempt}").random()
        return min(self.budget.backoff_cap_s, base * (1.0 + jitter))

    def _load_journaled(self, item: Item, record: dict, cfg: PDWConfig):
        """A journaled finished item: a cell's row from its record, a
        benchmark's run from the artifact cache, if intact."""
        if not isinstance(item, str):
            return item.replay(record)
        if self.cache is None or not self.use_cache:
            return None
        stored = self.cache.get(record["digest"])
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


def _fields(item: Item) -> dict:
    """The journal fields that name a work item."""
    if isinstance(item, str):
        return {"benchmark": item}
    return {"benchmark": item.benchmark, "scenario": item.scenario}


def _label(item: Item) -> str:
    return "/".join(_fields(item).values())


def attempt_item(
    item: Item,
    cfg: PDWConfig,
    cache: Optional[ArtifactCache],
    use_cache: bool,
    journal_path: Optional[Path],
) -> Union[SuiteEntry, "DegradeRow"]:
    """One attempt at one work item: ``run_benchmark`` for a benchmark,
    ``Cell.plan`` for a cell, with its stages journaled to
    ``journal_path``; a raised error becomes a :class:`FailureRecord` of
    the kind :func:`classify_failure` gives it."""
    name = _fields(item)["benchmark"]
    started = time.perf_counter()
    try:
        with sched_journal.stage_journal(journal_path, name):
            if isinstance(item, str):
                return run_benchmark(name, cfg, use_cache=use_cache, cache=cache)
            return item.plan(cfg, cache if use_cache else None)
    except Exception as exc:  # noqa: BLE001 — every failure becomes a record
        kind, message = classify_failure(exc)
        return FailureRecord(
            name=name, kind=kind, message=message,
            wall_time_s=time.perf_counter() - started,
        )


def _attempt_child(conn, item, cfg, cache, use_cache, journal_path, max_rss_bytes) -> None:
    """A budgeted attempt's child: make the attempt, report, exit.

    Sends ``(entry, metrics snapshot)``, the entry a ``BenchmarkRun``,
    ``DegradeRow`` or ``FailureRecord``; the parent journals the outcome,
    enforces the wall-clock budget and classifies a child that dies
    without reporting.
    """
    # The forked registry holds the parent's series; start empty so the
    # parent-side merge adds only this item's work.
    obs_metrics.reset()
    if max_rss_bytes:
        try:
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (max_rss_bytes, max_rss_bytes))
        except (ImportError, ValueError, OSError):
            pass  # best-effort: not every platform allows it
    entry = attempt_item(item, cfg, cache, use_cache, journal_path)
    safe_send(conn, (entry, obs_metrics.snapshot()))
    conn.close()
    # Skip interpreter teardown: the journal and the cache are written
    # through already.
    os._exit(0)
