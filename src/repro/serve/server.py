"""The ``pdw serve`` job server: admission, execution, lifecycle, shutdown.

Execution rides the existing suite machinery instead of re-implementing
any of it: each benchmark job becomes a one-benchmark stage-DAG run under
:class:`~repro.sched.executor.DagExecutor` (per-node budget/retries, the
shared JSONL run journal, artifact-cache writes), so ``GET
/v1/jobs/<id>`` progress is read straight from the journal and ``GET
/v1/jobs/<id>/plan`` is served from the same content-addressed cache a
CLI run would populate.  Jobs run **in-process** deliberately: the
whole-run memo and digest dedup live in this process, so a repeat
request is served without a run, and a request that differs only in its
weights reuses the replay, necessity, clusters and pathgen artifacts
from the disk cache and builds and solves only its own ILP.  Routing is
not among what stays warm: each job builds or unpickles its own chip, so it routes on
a fresh ``PathKernel``, and pathgen frees that kernel's LRU once PDW's
candidate paths are built.

Admission is bounded and fair: one lock makes digest-dedup, the
queue-capacity check and the enqueue atomic (two racing submissions of
the same payload cannot create two runs, and an accepted job is never
dropped), the per-client FIFO :class:`~repro.serve.queue.FairQueue`
prevents one client's burst from starving others, and a full queue turns
into ``429 Retry-After`` instead of an unbounded backlog.

Shutdown (SIGTERM/SIGINT or :meth:`shutdown`) is graceful and
idempotent: stop accepting, cancel everything still queued, join the
executor threads, close the listener.  The CI serve job asserts this
leaves no orphaned threads or processes.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.pipeline import ArtifactCache, default_cache
from repro.serve.jobs import Job, JobFailure, JobStore, job_progress
from repro.serve.queue import FairQueue
from repro.serve.routes import make_handler
from repro.serve.wire import JobSpec, job_digest

#: Seconds clients are told to back off when admission rejects with 429.
RETRY_AFTER_S = 5


class _HttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for burst traffic.

    The stdlib default listen backlog is 5; a 50-submission burst (the CI
    serve job's shape) overflows that and the kernel resets the excess
    connections before a handler thread ever sees them.  The backlog only
    holds sockets awaiting ``accept()`` — handler threads drain it fast —
    so a deep backlog costs nothing in steady state.
    """

    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True


class JobServer:
    """The long-running optimization service behind ``pdw serve``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8977,
        workers: int = 2,
        queue_cap: int = 64,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        job_timeout_s: float = 600.0,
    ):
        from repro.experiments.supervisor import default_journal_path

        self.cache = cache if cache is not None else (
            default_cache(cache_dir) if use_cache else None
        )
        self.use_cache = use_cache and self.cache is not None
        self.job_timeout_s = job_timeout_s
        self.retry_after_s = RETRY_AFTER_S
        self.journal_path: Path = default_journal_path(self.cache)

        self.store = JobStore()
        self.queue = FairQueue(capacity=max(1, queue_cap))
        self._admission = threading.Lock()
        self._stop = threading.Event()
        self._shutdown_done = threading.Event()
        self._started_ts = time.time()

        self._http = _HttpServer((host, port), make_handler(self))
        self.host, self.port = self._http.server_address[:2]

        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop, name=f"pdw-serve-worker-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for thread in self._workers:
            thread.start()

    # -- admission ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[Optional[Job], bool, bool]:
        """Admit one submission: ``(job, created, accepted)``.

        Dedup, the capacity check and the enqueue are atomic under the
        admission lock, so concurrent identical submissions converge on
        one job and an admitted job always reaches the queue.
        """
        digest = job_digest(spec)
        with self._admission:
            existing = self.store.find_by_digest(digest)
            needs_slot = existing is None or existing.state in ("failed", "cancelled")
            if needs_slot and self.queue.depth() >= self.queue.capacity:
                self._count_job("rejected")
                return None, False, False
            job, created = self.store.admit(spec, digest)
            if created:
                if not self.queue.offer(spec.client, job):
                    raise AssertionError("admission raced the queue capacity check")
                self._count_job("submitted")
                self._journal_serve("submit", job)
            else:
                self._count_job("deduped")
                self._journal_serve("dedup", job)
            self._set_queue_gauge()
            return job, created, True

    def cancel(self, job: Job) -> bool:
        with self._admission:
            if not self.store.mark_cancelled(job):
                return False
            self.queue.remove(job)
            self._count_job("cancelled")
            self._journal_serve("cancel", job)
            self._set_queue_gauge()
            return True

    # -- execution ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.take(timeout=0.2)
            if job is None:
                continue
            if self._stop.is_set():
                if self.store.mark_cancelled(job):
                    self._count_job("cancelled")
                    self._journal_serve("cancel", job)
                continue
            self.store.mark_running(job)
            self._journal_serve("start", job)
            self._set_queue_gauge()
            started = time.perf_counter()
            try:
                self._execute(job)
            except JobFailure as exc:
                self.store.mark_failed(job, exc.kind, str(exc))
                self._count_job("failed")
                self._journal_serve("failed", job)
            except ReproError as exc:
                self.store.mark_failed(job, "error", str(exc))
                self._count_job("failed")
                self._journal_serve("failed", job)
            except Exception as exc:  # pragma: no cover - crash guard
                self.store.mark_failed(job, "crash", f"{type(exc).__name__}: {exc}")
                self._count_job("failed")
                self._journal_serve("failed", job)
            else:
                self.store.mark_done(job)
                self._count_job("done")
                self._journal_serve("done", job)
            obs_metrics.registry().histogram(
                "pdw_serve_job_wall_seconds", kind=job.spec.kind
            ).observe(time.perf_counter() - started)

    def _execute(self, job: Job) -> None:
        if job.spec.kind == "benchmark":
            self._execute_benchmark(job)
        else:
            self._execute_assay(job)

    def _execute_benchmark(self, job: Job) -> None:
        """One-benchmark stage-DAG run; plan extracted per requested method."""
        from repro.experiments.runner import FailureRecord, run_digest
        from repro.experiments.supervisor import RunBudget
        from repro.export.plan_json import canonical_plan_dict
        from repro.sched.executor import DagExecutor

        spec = job.spec
        executor = DagExecutor(
            budget=RunBudget(timeout_s=self.job_timeout_s),
            cache=self.cache,
            use_cache=self.use_cache,
            workers=1,
            journal_path=self.journal_path,
        )
        result = executor.run([spec.benchmark], spec.config)
        entry = result.entries[0]
        if isinstance(entry, FailureRecord):
            raise JobFailure(entry.kind, entry.message)
        job.run_digest = run_digest(spec.benchmark, spec.config)
        plan = self._method_plan(entry, spec.method)
        job.plan = canonical_plan_dict(plan)

    def _execute_assay(self, job: Job) -> None:
        """User-assay jobs run the pipeline directly (no benchmark DAG)."""
        from repro.assay import graph_from_dict
        from repro.baselines import dawo_plan, immediate_wash_plan
        from repro.core import optimize_washes
        from repro.export.plan_json import canonical_plan_dict
        from repro.synth import synthesize

        spec = job.spec
        synth = synthesize(graph_from_dict(dict(spec.assay)))
        cache = self.cache if self.use_cache else None
        if spec.method == "pdw":
            plan = optimize_washes(synth, spec.config, cache=cache)
        elif spec.method == "dawo":
            plan = dawo_plan(synth, cache=cache)
        else:
            plan = immediate_wash_plan(synth)
        job.plan = canonical_plan_dict(plan)

    @staticmethod
    def _method_plan(run: Any, method: str):
        from repro.baselines import immediate_wash_plan

        if method == "pdw":
            return run.pdw
        if method == "dawo":
            return run.dawo
        return immediate_wash_plan(run.synthesis)

    # -- read endpoints ----------------------------------------------------------

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self.store.get(job_id)
        if job is None:
            return None
        progress = None
        if job.state == "running":
            from repro.sched import journal as sched_journal

            progress = job_progress(
                job, sched_journal.read_records(self.journal_path)
            )
        return job.status_dict(progress)

    def jobs_dict(self) -> Dict[str, Any]:
        return {
            "jobs": [job.status_dict() for job in self.store.jobs()],
            "counts": self.store.counts(),
        }

    def health_dict(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self._started_ts, 3),
            "workers": len(self._workers),
            "queue_depth": self.queue.depth(),
            "queue_cap": self.queue.capacity,
            "jobs": self.store.counts(),
        }

    def plan_json(self, job: Job) -> Optional[str]:
        """Canonical plan JSON for a done job — cache first, memory second.

        Both paths serialize the same timing-free canonical dict with the
        same dump settings, so every reader of a deduped job observes
        byte-identical plans regardless of which path served it.
        """
        plan_dict = None
        if job.run_digest is not None and self.use_cache:
            from repro.export.plan_json import canonical_plan_dict

            stored = self.cache.get(job.run_digest)
            if stored is not None:
                plan_dict = canonical_plan_dict(
                    self._method_plan(stored, job.spec.method)
                )
        if plan_dict is None:
            plan_dict = job.plan
        if plan_dict is None:
            return None
        return json.dumps(plan_dict, indent=2, sort_keys=True) + "\n"

    def render_metrics(self) -> str:
        self._set_queue_gauge()
        return obs_metrics.registry().render_prometheus()

    # -- bookkeeping -------------------------------------------------------------

    def count_request(self, route: str, code: int) -> None:
        obs_metrics.registry().counter(
            "pdw_serve_requests_total", route=route, code=str(code)
        ).inc()

    def count_invalid(self) -> None:
        self._count_job("invalid")

    def _count_job(self, outcome: str) -> None:
        obs_metrics.registry().counter(
            "pdw_serve_jobs_total", outcome=outcome
        ).inc()

    def _set_queue_gauge(self) -> None:
        obs_metrics.registry().gauge("pdw_serve_queue_depth").set(
            float(self.queue.depth())
        )

    def _journal_serve(self, action: str, job: Job) -> None:
        """Serve lifecycle events share the suite journal (event="serve");
        the suite's readers filter on their own event names, so the two
        record families coexist in one operational log."""
        from repro.sched import journal as sched_journal

        sched_journal.append_record(
            self.journal_path,
            {
                "event": "serve",
                "action": action,
                "job": job.id,
                "digest": job.digest,
                "client": job.spec.client,
                "target": job.spec.target,
                "state": job.state,
            },
        )

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self, install_signals: bool = False) -> None:
        """Run the HTTP loop until :meth:`shutdown` (or SIGTERM/SIGINT)."""
        if install_signals:
            # The handler must not call ThreadingHTTPServer.shutdown()
            # directly: the signal interrupts the serve_forever loop's own
            # thread, and shutdown() blocks until that loop acknowledges —
            # a deadlock.  A one-shot helper thread breaks the cycle.
            def _on_signal(signum: int, frame: Any) -> None:
                threading.Thread(
                    target=self.shutdown, name="pdw-serve-shutdown", daemon=True
                ).start()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful, idempotent: drain, cancel queued, join, close."""
        if self._stop.is_set():
            self._shutdown_done.wait(timeout=30.0)
            return
        self._stop.set()
        self.queue.close()
        for job in self.queue.drain():
            if self.store.mark_cancelled(job):
                self._count_job("cancelled")
                self._journal_serve("cancel", job)
        self._http.shutdown()
        self._http.server_close()
        for thread in self._workers:
            thread.join(timeout=max(10.0, self.job_timeout_s))
        self._shutdown_done.set()
