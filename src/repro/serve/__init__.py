"""Optimization-as-a-service: the ``pdw serve`` HTTP job API.

The front door that turns the repository from "a CLI that runs
benchmarks" into a long-running service (ROADMAP north star; DESIGN.md
§15).  Stdlib-only — ``http.server`` + ``threading``, keeping the
zero-dependency stance — and a thin layer over machinery that already
exists: each job runs in a forked child process that makes its one plan
with :func:`~repro.experiments.runner.plan_one`, as ``pdw run`` does,
dedup keys on a content digest of the job, progress is read from the
JSONL run journal, and ``/metrics`` is the Prometheus registry the rest
of the system already populates.

Module map:

* :mod:`repro.serve.wire` — submission parsing, validation, job digests
* :mod:`repro.serve.queue` — bounded per-client-fair admission queue
* :mod:`repro.serve.jobs` — job records, lifecycle, dedup store
* :mod:`repro.serve.routes` — the route registry (docs drift-tested) and
  the HTTP handler
* :mod:`repro.serve.server` — :class:`JobServer`: admission, execution,
  graceful shutdown

The HTTP API handbook is ``docs/SERVICE.md``; the end-to-end walkthrough
is ``docs/TUTORIAL.md`` §10.
"""

from repro.serve.jobs import JOB_STATES, Job, JobStore
from repro.serve.queue import FairQueue
from repro.serve.routes import ROUTES, Route
from repro.serve.server import JobServer
from repro.serve.wire import (
    MAX_BODY_BYTES,
    WIRE_SCHEMA,
    JobSpec,
    WireError,
    job_digest,
    parse_job,
)

__all__ = [
    "JOB_STATES",
    "Job",
    "JobServer",
    "JobSpec",
    "JobStore",
    "FairQueue",
    "MAX_BODY_BYTES",
    "ROUTES",
    "Route",
    "WIRE_SCHEMA",
    "WireError",
    "job_digest",
    "parse_job",
]
