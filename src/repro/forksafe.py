"""Module-level locks that a forked child can still take.

``pdw serve`` forks one child per job while its other threads run (HTTP
handlers, the other worker, the main loop).  A forked child keeps only
the thread that forked, so a lock that another thread held at that
instant stays held in the child forever, and the child's first ``with
lock:`` hangs.  Every module-level lock a job takes is registered here
and replaced by a free one in each forked child.  The forking thread
itself must not hold any of them when it forks.
"""

from __future__ import annotations

import os
import threading


def renew_lock_in_child(owner: object, name: str) -> None:
    """Give every forked child a fresh ``threading.Lock`` at ``owner.<name>``.

    ``owner`` is the object holding the lock: an instance, or the module
    itself (``sys.modules[__name__]``) for a module-level lock.
    """
    if hasattr(os, "register_at_fork"):  # POSIX; spawned children start fresh
        os.register_at_fork(
            after_in_child=lambda: setattr(owner, name, threading.Lock())
        )
