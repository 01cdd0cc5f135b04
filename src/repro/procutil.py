"""Subprocess plumbing for the suite supervisor and the job server.

:class:`~repro.experiments.supervisor.SuiteSupervisor` isolates each
benchmark in a worker subprocess, and :class:`~repro.serve.server.JobServer`
each ``pdw serve`` job; both collect the result over a pipe and must
kill and reap workers that lost their reason to exist.  The helpers
here are that machinery.

* :data:`MP` — the preferred multiprocessing context: ``fork`` where
  available so workers inherit the warmed interpreter, ``spawn``
  otherwise.
* :func:`safe_send` — a pipe send that never raises: a dead parent or an
  unpicklable payload degrades to "worker exited silently", which every
  consumer already classifies from the exit code.
* :func:`terminate` / :func:`reap` — hard-kill a worker and join it with
  a bounded wait, escalating once if it survives the first join.
"""

from __future__ import annotations

import multiprocessing

#: Prefer fork: workers inherit the warmed interpreter; fall back to
#: spawn where fork is unavailable (all arguments are picklable).
MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def safe_send(conn, payload) -> None:
    """Send over a pipe, swallowing a dead peer or unpicklable payload."""
    try:
        conn.send(payload)
    except (OSError, ValueError):
        pass  # parent is gone or payload unpicklable; exit code tells the rest


def terminate(proc) -> None:
    """Hard-kill a worker process (best effort, never raises)."""
    try:
        proc.kill()
    except (OSError, AttributeError):
        try:
            proc.terminate()
        except OSError:
            pass


def reap(proc) -> None:
    """Join a worker with a bounded wait, escalating to a kill once."""
    proc.join(timeout=5.0)
    if proc.is_alive():
        terminate(proc)
        proc.join(timeout=5.0)
