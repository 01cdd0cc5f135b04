"""The ``pdw serve`` job server: admission, execution, lifecycle, shutdown.

The server process keeps admission, dedup, the queue, HTTP and the
finished jobs' plans; it never routes, solves or plans.  Each job runs
in a child process that a worker thread forks
(:class:`repro.procutil.Child`, what ``pdw suite`` forks each benchmark
with): the child makes the job's one plan with
:func:`~repro.experiments.runner.plan_one`, as ``pdw run`` and
``pdw assay`` do, with one ``stage`` record per stage journaled under
the job's id to the shared JSONL run journal.  It sends back
``(canonical plan dict, metrics snapshot)`` or a failure kind over a
pipe and exits; the worker keeps the plan's canonical JSON on the job
and merges the snapshot into the server's registry, so ``/metrics``
carries every job's series.  ``GET /v1/jobs/<id>`` progress is read from
the journal and ``GET /v1/jobs/<id>/plan`` serves the kept JSON.

Why a process per job: a job's routing and HiGHS heap leave with the
child instead of staying in the server, a timeout kills and reaps the
child (no thread keeps burning CPU), and a stage that exits fails only
its own job.  What stays warm across jobs is digest dedup and the disk
cache: a request that differs only in its weights reuses the replay,
necessity, clusters and pathgen artifacts from disk and builds and
solves only its own ILP.  Under ``--no-cache`` every job plans from
scratch.

Forking a multi-threaded process is safe here for two reasons (Python
3.12 warns about it in general): everything a job imports is imported
below, at module load, before the server starts a thread, so no child
waits on an import lock; and every module-level lock a job takes is
renewed in the child (:func:`repro.forksafe.renew_lock_in_child`), so
no child waits on a lock another server thread held at fork time.

Admission is bounded and fair: one lock makes digest-dedup, the
queue-capacity check and the enqueue atomic (two racing submissions of
the same payload cannot create two runs, and an accepted job is never
dropped), the per-client FIFO :class:`~repro.serve.queue.FairQueue`
prevents one client's burst from starving others, and a full queue turns
into ``429 Retry-After`` instead of an unbounded backlog.

Shutdown (SIGTERM/SIGINT or :meth:`JobServer.shutdown`) is graceful and
idempotent: stop accepting, cancel everything still queued, kill and
reap the running jobs' children, join the worker threads, close the
listener.  The CI serve job asserts this leaves no orphaned threads or
processes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

# Everything a job child runs is imported here, before any server
# thread exists (see the module docstring).  The planning path imports
# the rest at its call sites: repro.arch.io in the stage digests,
# pickle and logging at the first cache read, write or quarantine, and
# the solver fallbacks (branch-and-bound, greedy, the exact path ILP)
# only when a job reaches them.
import logging  # noqa: F401
import pickle  # noqa: F401

import repro.arch.io  # noqa: F401
import repro.core.fallback  # noqa: F401
import repro.core.path_ilp  # noqa: F401
import repro.ilp.branch_bound  # noqa: F401
from repro.assay import graph_from_dict
from repro.experiments.runner import classify_failure, plan_one
from repro.export.plan_json import canonical_plan_dict
from repro.obs import metrics as obs_metrics
from repro.pipeline import ArtifactCache, default_cache
from repro.pipeline import cache as artifact_cache
from repro.procutil import Child, safe_send, terminate
from repro.sched import journal as sched_journal
from repro.sched.journal import default_journal_path
from repro.serve import httpd
from repro.serve.jobs import Job, JobFailure, JobStore, job_progress
from repro.serve.queue import FairQueue
from repro.serve.routes import make_handler
from repro.serve.wire import JobSpec, job_digest

#: Seconds clients are told to back off when admission rejects with 429.
RETRY_AFTER_S = 5


def _job_entry(
    conn, job_id: str, spec: JobSpec, cache: Optional[ArtifactCache], journal_path: Path
) -> None:
    """Job child body: plan one job, send the outcome home, exit.

    Sends ``("ok", plan_dict, snapshot)`` or ``("fail", kind, message,
    snapshot)``; a child that dies first sends nothing, and the parent
    classifies it from the closed pipe.  The child has no timeout of its
    own: the parent kills it past ``job_timeout_s``.
    """
    # The server's SIGTERM/SIGINT handler would run a second server
    # shutdown in here; the parent kills its children instead.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # The forked registry holds the server's own series; start empty so
    # the parent-side merge adds only this job's work.
    obs_metrics.reset()
    try:
        target = spec.benchmark
        if spec.kind == "assay":
            target = graph_from_dict(dict(spec.assay))
        with sched_journal.stage_journal(journal_path, spec.target, job=job_id):
            plan = plan_one(target, spec.method, spec.config, cache)
        outcome: tuple = ("ok", canonical_plan_dict(plan))
    except Exception as exc:  # a job child reports every failure it survives
        outcome = ("fail", *classify_failure(exc))
    safe_send(conn, outcome + (obs_metrics.snapshot(),))
    conn.close()
    # Skip interpreter teardown: it flushes std streams whose locks
    # another server thread may have held at fork time.
    os._exit(0)


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
        #: Where job children's metrics snapshots are merged: the process
        #: registry, so ``/metrics`` shows each job's series.
        self.job_metrics = obs_metrics.registry()
        self._fork_lock = threading.Lock()
        self._children: Set[Any] = set()

        self._http = httpd.Server((host, port), make_handler(self))
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
            # Set before the job reads as running, so no poll sees offset 0.
            job.journal_offset = sched_journal.journal_size(self.journal_path)
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
        """Plan ``job`` in a forked child; fill ``job.plan`` or raise
        :class:`JobFailure` (``timeout`` past ``job_timeout_s``, ``crash``
        when the child dies before reporting)."""
        child = self._fork(job)
        try:
            outcome, failure = child.wait().finish()
        finally:
            with self._fork_lock:
                self._children.discard(child.proc)
        if failure is not None:
            kind, message = failure
            if kind == "crash" and self._stop.is_set():
                message = f"killed by server shutdown: {message}"
            raise JobFailure(kind, message)
        self._absorb_metrics(outcome[-1])
        if outcome[0] != "ok":
            raise JobFailure(outcome[1], outcome[2])
        job.plan = json.dumps(outcome[1], indent=2, sort_keys=True) + "\n"

    def _fork(self, job: Job) -> Child:
        """Start ``job``'s child under the job timeout.

        Forks are serialized so that no child inherits another job's
        pipe write end: the parent closes its copy before the next fork,
        so each pipe reads EOF exactly when its own child is gone.  The
        first fork pins glibc's mmap threshold for every child
        (:class:`~repro.procutil.Child`), after the readiness line, so
        server start-up does not pay for it.
        """
        with self._fork_lock:
            if self._stop.is_set():
                raise JobFailure("crash", "server shut down before the job started")
            child = Child(
                _job_entry,
                (job.id, job.spec, self.cache if self.use_cache else None,
                 self.journal_path),
                name=f"pdw-job-{job.id}",
                timeout_s=self.job_timeout_s,
            )
            self._children.add(child.proc)
        return child

    def _absorb_metrics(self, snapshot: Any) -> None:
        """Merge one job child's metrics snapshot into ``job_metrics``."""
        if not isinstance(snapshot, dict):
            return
        try:
            self.job_metrics.merge(snapshot)
        except (TypeError, ValueError):
            pass  # a malformed snapshot must not fail a finished job

    # -- read endpoints ----------------------------------------------------------

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self.store.get(job_id)
        if job is None:
            return None
        progress = None
        if job.state == "running":
            progress = job_progress(
                job, sched_journal.read_records(self.journal_path, job.journal_offset)
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
            # The handler must not call the HTTP server's shutdown()
            # directly: the signal interrupts the serve_forever loop's own
            # thread, and shutdown() blocks until that loop acknowledges —
            # a deadlock.  A one-shot helper thread breaks the cycle.
            def _on_signal(signum: int, frame: Any) -> None:
                threading.Thread(
                    target=self.shutdown, name="pdw-serve-shutdown", daemon=True
                ).start()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        if self.use_cache:
            # Hashed right after the readiness line, so from the source this
            # server has just imported, and before a request can fork a
            # job: every child inherits it.
            artifact_cache.code_salt()
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful, idempotent: cancel queued, kill running, join, close."""
        if self._stop.is_set():
            self._shutdown_done.wait(timeout=30.0)
            return
        self._stop.set()
        self.queue.close()
        for job in self.queue.drain():
            if self.store.mark_cancelled(job):
                self._count_job("cancelled")
                self._journal_serve("cancel", job)
        # _fork checks _stop under the same lock, so no child starts
        # after this kill pass; each worker reaps the child it waited on.
        with self._fork_lock:
            for proc in self._children:
                terminate(proc)
        self._http.shutdown()
        self._http.server_close()
        deadline = time.monotonic() + 15.0
        for thread in self._workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._shutdown_done.set()
