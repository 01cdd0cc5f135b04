"""Pipeline-wide fault injection (generalizes :mod:`repro.ilp.faults`).

PR 2's harness could only break the solver ladder; this module can break
*any* pipeline stage or cache read, which is what the suite engine
(:mod:`repro.sched.executor`) and the CI chaos job drive.  Faults
are armed through ``REPRO_INJECT_STAGE_FAULT``, a comma-separated list of
clauses::

    <target>:<mode>[:<arg>][@<benchmark>]

``target``
    A stage name (``synthesis``, ``replay``, ``necessity``, ``clusters``,
    ``pathgen``, ``ilp``, ``assemble``, ...) or ``cache`` for artifact
    cache reads.
``mode``
    ``crash``
        Raise :class:`InjectedFault` (a :class:`~repro.errors.ReproError`)
        when the target runs.  With ``:<n>`` only the first ``n`` trips
        fire — the counter lives in ``$REPRO_CHAOS_STATE`` (one file per
        clause) so it survives the suite's benchmark processes and
        makes crash-then-recover retry tests deterministic.
    ``hang:<seconds>``
        Sleep before the target runs (default 3600 s), simulating a stall
        the suite must kill on its wall-clock budget.
    ``exit[:code]``
        ``os._exit`` immediately (default code 13), simulating a worker
        killed without a goodbye — the parent sees only the exit code.
    ``corrupt``
        Only meaningful for the ``cache`` target: payload bytes read from
        the artifact cache are flipped *in memory* before checksum
        verification, driving the cache's quarantine path.
``@<benchmark>``
    Scope the clause to one benchmark.  :func:`scope` is entered by
    :func:`repro.experiments.runner.run_benchmark`,
    :func:`~repro.experiments.runner.plan_one` given a benchmark name
    (and the ablation harness), so an unscoped clause fires everywhere.

Unlike solver faults, stage faults never *alter* a produced artifact —
they only prevent production (crash / hang / exit) or invalidate a read
(corrupt, which forces a clean recompute).  Armed chaos therefore cannot
poison the artifact cache and is deliberately **not** folded into cache
digests: a suite re-run with a clean environment after a chaos run still
gets every stage that finished under chaos back from the cache.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.errors import ReproError

#: Environment variable arming stage faults.
ENV_STAGE_FAULT = "REPRO_INJECT_STAGE_FAULT"
#: Directory holding cross-process trip counters for count-limited faults.
ENV_STATE_DIR = "REPRO_CHAOS_STATE"

#: Valid fault modes.
MODES = ("crash", "hang", "exit", "corrupt")

#: Target name addressing artifact-cache reads instead of a stage.
CACHE_TARGET = "cache"


class ChaosError(ReproError):
    """A malformed ``REPRO_INJECT_STAGE_FAULT`` specification."""


class InjectedFault(ReproError):
    """Raised by an armed ``crash`` fault when its target runs."""


@dataclass(frozen=True)
class StageFault:
    """One parsed clause of ``REPRO_INJECT_STAGE_FAULT``."""

    stage: str
    mode: str
    arg: Optional[float] = None
    benchmark: Optional[str] = None

    @classmethod
    def parse(cls, clause: str) -> "StageFault":
        """Parse ``<target>:<mode>[:<arg>][@<benchmark>]`` (raises on junk)."""
        text = clause.strip()
        bench: Optional[str] = None
        if "@" in text:
            text, _, bench = text.rpartition("@")
            bench = bench.strip() or None
        parts = text.split(":")
        if len(parts) < 2 or not parts[0].strip():
            raise ChaosError(
                f"bad {ENV_STAGE_FAULT} clause {clause!r}; "
                "expected <stage>:<mode>[:<arg>][@<benchmark>]"
            )
        stage, mode = parts[0].strip(), parts[1].strip()
        if mode not in MODES:
            raise ChaosError(
                f"unknown fault mode {mode!r} in {clause!r}; "
                f"expected one of {', '.join(MODES)}"
            )
        arg: Optional[float] = None
        if len(parts) > 2:
            try:
                arg = float(parts[2])
            except ValueError as exc:
                raise ChaosError(f"bad fault argument {parts[2]!r} in {clause!r}") from exc
            if arg < 0:
                raise ChaosError(f"fault argument must be >= 0, got {arg} in {clause!r}")
        return cls(stage=stage, mode=mode, arg=arg, benchmark=bench)


def parse_spec(text: str) -> Tuple[StageFault, ...]:
    """Parse the full comma-separated fault specification."""
    clauses = [c for c in text.split(",") if c.strip()]
    return tuple(StageFault.parse(c) for c in clauses)


def active_faults() -> Tuple[StageFault, ...]:
    """The armed faults, or ``()`` when the environment is clean."""
    raw = os.environ.get(ENV_STAGE_FAULT, "").strip()
    return parse_spec(raw) if raw else ()


def environment_token() -> str:
    """Raw spec for journaling/forensics; empty in a clean environment."""
    return os.environ.get(ENV_STAGE_FAULT, "").strip()


# ---------------------------------------------------------------------------
# benchmark scoping
# ---------------------------------------------------------------------------

_scope = threading.local()


@contextmanager
def scope(benchmark: str) -> Iterator[None]:
    """Mark the current thread as running ``benchmark`` (for ``@`` clauses)."""
    prior = getattr(_scope, "benchmark", None)
    _scope.benchmark = benchmark
    try:
        yield
    finally:
        _scope.benchmark = prior


def current_scope() -> Optional[str]:
    """The benchmark the current thread is running, if any."""
    return getattr(_scope, "benchmark", None)


# ---------------------------------------------------------------------------
# firing
# ---------------------------------------------------------------------------

def _state_dir() -> Path:
    env = os.environ.get(ENV_STATE_DIR)
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-chaos"


def _consume(fault: StageFault) -> bool:
    """Atomically count one firing of a count-limited clause.

    Returns whether the fault should still fire (trips so far < limit).
    The counter is a file whose size is the trip count — one appended byte
    per firing works lock-free across the suite's benchmark processes.
    """
    limit = int(fault.arg or 0)
    key = hashlib.sha256(repr(fault).encode("utf-8")).hexdigest()[:16]
    path = _state_dir() / f"{key}.count"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab") as fh:
        fh.write(b".")
        fh.flush()
        fired = fh.tell()
    return fired <= limit


def reset() -> None:
    """Clear all count-limited trip counters (used by tests)."""
    state = _state_dir()
    if state.is_dir():
        for path in state.glob("*.count"):
            try:
                path.unlink()
            except OSError:
                pass


def fault_for(stage: str) -> Optional[StageFault]:
    """The first armed fault matching ``stage`` in the current scope."""
    faults = active_faults()
    if not faults:
        return None
    bench = current_scope()
    for fault in faults:
        if fault.stage != stage:
            continue
        if fault.benchmark is not None and fault.benchmark != bench:
            continue
        return fault
    return None


def trip(stage: str) -> None:
    """Apply the armed fault (if any) to one execution of ``stage``.

    ``crash`` raises :class:`InjectedFault`, ``hang`` sleeps, ``exit``
    terminates the process; ``corrupt`` is a no-op here (it is applied at
    the cache-read layer, see :func:`corrupt_payload`).
    """
    fault = fault_for(stage)
    if fault is None or fault.mode == "corrupt":
        return
    if fault.mode == "crash":
        if fault.arg is not None and not _consume(fault):
            return
        raise InjectedFault(
            f"injected crash in stage {stage!r}"
            + (f" (benchmark {fault.benchmark})" if fault.benchmark else "")
        )
    if fault.mode == "hang":
        time.sleep(fault.arg if fault.arg is not None else 3600.0)
        return
    # exit: simulate a worker killed without a goodbye message.
    os._exit(int(fault.arg) if fault.arg is not None else 13)


def corrupt_payload(payload: bytes) -> bytes:
    """Deterministically flip the payload bytes of a cache read.

    Applied by :meth:`repro.pipeline.cache.ArtifactCache.get` when a
    ``cache:corrupt`` fault is armed; the flipped first byte guarantees a
    checksum mismatch, driving the quarantine path.
    """
    if not payload:
        return b"\x00"
    return bytes([payload[0] ^ 0xFF]) + payload[1:]
