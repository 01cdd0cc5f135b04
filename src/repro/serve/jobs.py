"""Job records, the lifecycle state machine, and the dedup store.

Lifecycle (docs/SERVICE.md, drift-tested)::

    queued ──▶ running ──▶ done
       │          └──────▶ failed
       └──▶ cancelled

``done``/``failed``/``cancelled`` are terminal.  The :class:`JobStore`
indexes jobs by content digest: a submission whose digest matches a
*live or successful* job dedups onto it (same job id returned, no second
run); a digest whose previous job **failed or was cancelled** is
resubmittable — the same id is re-queued with a fresh attempt counter,
so a transient crash doesn't poison the digest forever.

Progress for running jobs is read from the suite run journal: the job's
child writes one ``stage`` record per pipeline stage it runs, tagged
with the job's id (:func:`repro.sched.journal.record_stage`), so
counting this job's records gives ``nodes_done / nodes_total`` without
any extra bookkeeping channel.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.baselines.dawo import DAWO_PIPELINE
from repro.core.stages import PDW_PIPELINE
from repro.serve.wire import JobSpec, job_id_for

#: The lifecycle states, in canonical order (docs/SERVICE.md table).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Stage records one job of each method journals — the denominator of
#: its progress fraction.  An ``immediate`` plan runs no staged pipeline,
#: so its job reports state only.
METHOD_STAGES = {"pdw": len(PDW_PIPELINE), "dawo": len(DAWO_PIPELINE)}


class JobFailure(Exception):
    """Raised by job execution with a suite-taxonomy failure kind."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Job:
    """One submitted job and its observable state."""

    id: str
    spec: JobSpec
    digest: str
    state: str = "queued"
    submitted_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: How many times this digest has been (re)queued for execution.
    attempts: int = 0
    error_kind: Optional[str] = None
    error_message: Optional[str] = None
    #: The canonical plan JSON ``GET /v1/jobs/<id>/plan`` serves, once done.
    plan: Optional[str] = None
    #: Journal length when the job started, before its child was forked:
    #: progress polls read only the records appended after it.
    journal_offset: int = 0

    def status_dict(self, progress: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` response body."""
        body: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "target": self.spec.target,
            "method": self.spec.method,
            "client": self.spec.client,
            "config_keys": list(self.spec.config_keys),
            "attempts": self.attempts,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
        }
        if self.error_kind is not None:
            body["error"] = {"kind": self.error_kind, "message": self.error_message}
        if progress is not None:
            body["progress"] = progress
        return body


class JobStore:
    """Thread-safe registry of jobs with digest-keyed dedup.

    All mutation happens under one lock; the server additionally holds
    its admission lock across lookup+insert so dedup and the queue-cap
    check are atomic with respect to concurrent submissions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_ts)

    def find_by_digest(self, digest: str) -> Optional[Job]:
        with self._lock:
            job_id = self._by_digest.get(digest)
            return self._jobs.get(job_id) if job_id else None

    def admit(self, spec: JobSpec, digest: str) -> tuple:
        """Dedup-or-create for a submission: ``(job, created)``.

        ``created`` is ``True`` when the job must be enqueued (new digest,
        or a failed/cancelled digest being retried), ``False`` when the
        submission deduped onto a queued/running/done job.
        """
        with self._lock:
            existing_id = self._by_digest.get(digest)
            existing = self._jobs.get(existing_id) if existing_id else None
            if existing is not None:
                if existing.state in ("queued", "running", "done"):
                    return existing, False
                # failed | cancelled → resubmission re-queues the same id.
                existing.state = "queued"
                existing.submitted_ts = time.time()
                existing.started_ts = None
                existing.finished_ts = None
                existing.error_kind = None
                existing.error_message = None
                existing.spec = spec
                return existing, True
            job = Job(id=job_id_for(digest), spec=spec, digest=digest)
            self._jobs[job.id] = job
            self._by_digest[digest] = job.id
            return job, True

    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.started_ts = time.time()
            job.attempts += 1

    def mark_done(self, job: Job) -> None:
        with self._lock:
            job.state = "done"
            job.finished_ts = time.time()

    def mark_failed(self, job: Job, kind: str, message: str) -> None:
        with self._lock:
            job.state = "failed"
            job.finished_ts = time.time()
            job.error_kind = kind
            job.error_message = message

    def mark_cancelled(self, job: Job) -> bool:
        """queued → cancelled; ``False`` when the job is not cancellable."""
        with self._lock:
            if job.state != "queued":
                return False
            job.state = "cancelled"
            job.finished_ts = time.time()
            return True

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out


def job_progress(job: Job, journal_records: List[dict]) -> Dict[str, Any]:
    """Stage progress of a running job from journal records.

    Counts the distinct ``(method, stage)`` pairs among the ``stage``
    records carrying this job's id; ``immediate`` jobs, which run no
    staged pipeline, report state only.
    """
    total = METHOD_STAGES.get(job.spec.method)
    if total is None or job.started_ts is None:
        return {"nodes_done": None, "nodes_total": None}
    done = {
        (rec.get("method"), rec.get("stage"))
        for rec in journal_records
        if rec.get("event") == "stage" and rec.get("job") == job.id
    }
    return {"nodes_done": len(done), "nodes_total": total}
