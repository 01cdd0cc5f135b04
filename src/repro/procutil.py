"""Forked workers: fork, wait with a timeout, kill, reap, classify.

Two callers isolate work in a forked child and collect one result over a
pipe: :class:`~repro.sched.executor.SuiteExecutor` runs each budgeted
benchmark attempt in one (``pdw suite``), and
:class:`~repro.serve.server.JobServer` each ``pdw serve`` job.  Both
must kill a child that outlives its wall-clock budget, reap every child
they start, and tell a child that reported from one that died first.
:class:`Child` is that machinery, once.

* :data:`MP` — the preferred multiprocessing context: ``fork`` where
  available so children inherit the warmed interpreter, ``spawn``
  otherwise.
* :func:`safe_send` — a pipe send that never raises: a dead parent or an
  unpicklable payload degrades to "child exited silently", which
  :meth:`Child.finish` classifies from the exit code.
* :func:`terminate` / :func:`reap` — hard-kill a child and join it with
  a bounded wait, escalating once if it survives the first join.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import time
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Iterable, Optional, Tuple

#: Prefer fork: children inherit the warmed interpreter; fall back to
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


class Child:
    """One forked child and the read end of its result pipe.

    ``target(conn, *args)`` runs in the child and sends one payload over
    ``conn``.  ``timeout_s`` is the wall-clock budget the parent holds
    it to (``None``: no budget).  The first child of a process pins
    glibc's mmap threshold (:func:`repro.ilp.highs.pin_mmap_threshold`)
    in the parent first, and every child inherits it.  The parent keeps
    only the read end, so
    the pipe reads EOF exactly when the child is gone — provided no other
    child was forked while this one's write end was still open here,
    which callers that fork from several threads serialize.
    """

    def __init__(
        self,
        target,
        args: Tuple[Any, ...] = (),
        name: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ):
        from repro.ilp import highs

        if highs._pin_pending:  # no child imports ctypes (it can fail under a cap)
            highs.pin_mmap_threshold()
        self.conn, child_conn = MP.Pipe(duplex=False)
        self.proc = MP.Process(
            target=target, args=(child_conn, *args), name=name, daemon=True
        )
        self.proc.start()
        child_conn.close()  # the parent keeps only the read end
        self.started = time.monotonic()
        self.timeout_s = timeout_s
        self.deadline = math.inf if timeout_s is None else self.started + timeout_s

    def done(self) -> bool:
        """Whether :meth:`finish` has something to finish: the child
        reported, died, or ran out its budget."""
        return self.conn.poll(0) or time.monotonic() >= self.deadline

    def wait(self) -> "Child":
        """Block until the child reports, dies or runs out its budget."""
        if self.timeout_s is None:
            self.conn.poll(None)
        else:
            self.conn.poll(max(0.0, self.deadline - time.monotonic()))
        return self

    def finish(self, rss_capped: bool = False):
        """Collect the payload or kill the child; reap it either way.

        Returns ``(payload, None)`` when the child reported, else
        ``(None, (kind, message))``: ``timeout`` when it was still running
        (it is killed), ``oom`` when the kernel SIGKILLed it under an
        address-space cap (``rss_capped``), ``crash`` when it died
        without reporting.
        """
        reported = self.conn.poll(0)
        payload = None
        if reported:
            try:
                payload = self.conn.recv()
            except (EOFError, OSError):
                pass  # died before (or while) reporting: EOF
        else:
            terminate(self.proc)
        reap(self.proc)
        self.conn.close()
        if not reported:
            return None, (
                "timeout", f"exceeded wall-clock budget of {self.timeout_s:g}s"
            )
        if payload is None:
            code = self.proc.exitcode
            kind = "oom" if rss_capped and code == -signal.SIGKILL else "crash"
            return None, (
                kind,
                f"{self.proc.name} exited with code {code} before reporting a result",
            )
        return payload, None


def wait_any(children: Iterable[Child], timeout: Optional[float]) -> None:
    """Block until one of ``children`` reports or dies, or ``timeout``."""
    _wait_connections([child.conn for child in children], timeout)
