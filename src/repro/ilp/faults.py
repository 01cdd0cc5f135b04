"""Deterministic fault injection for the solver degradation ladder.

The portfolio (:mod:`repro.ilp.portfolio`) consults this module before every
HiGHS rung attempt, which makes the fallback ladder testable without a
genuinely misbehaving backend.  Faults are armed through the
``REPRO_INJECT_SOLVER_FAULT`` environment variable:

``timeout``
    The rung reports a time limit hit without an incumbent (``ERROR``).
``crash``
    The rung raises :class:`~repro.errors.SolverError`.
``no_incumbent``
    The rung returns ``ERROR`` ("no incumbent available").
``flaky:<p>``
    Each attempt crashes with probability ``p`` drawn from a deterministic
    pseudo-random stream (seeded by ``REPRO_FAULT_SEED``, default 0), so a
    given sequence of attempts fails identically across runs.

Faults target the HiGHS rungs only (:data:`FAULT_TARGET_RUNGS`): the
pure-Python fallback rungs stay healthy, so every ladder terminates — the
degraded-but-alive behaviour the ladder exists to provide.  Tests arm
faults through the ``solver_fault`` fixture (``tests/conftest.py``).

``REPRO_FORCE_SOLVER`` (``highs`` | ``branch_bound`` | ``greedy``)
independently pins the ladder to a single rung; CI uses it to keep the
fallback rungs exercised.  Because both variables change what the ILP
stage produces without appearing in :class:`~repro.core.config.PDWConfig`,
:func:`environment_token` must be folded into every cache key covering a
solve (stage keys, the in-process run memo) so degraded
outcomes never masquerade as healthy ones.

This module injects faults *inside* the solver only.  The pipeline-wide
harness — crashing, hanging or corrupting any stage or a cache read, to
exercise the suite engine and the self-verifying cache — is
:mod:`repro.pipeline.chaos` (``REPRO_INJECT_STAGE_FAULT``).  The two are
deliberately separate: solver faults alter the produced artifact (hence
the digest folding above), stage faults only prevent production, so
chaos is *excluded* from cache keys.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SolverError
from repro.ilp.solution import Solution, SolveStatus

#: Environment variable arming an injected fault.
ENV_FAULT = "REPRO_INJECT_SOLVER_FAULT"
#: Environment variable pinning the portfolio to one rung.
ENV_FORCE = "REPRO_FORCE_SOLVER"
#: Environment variable seeding the ``flaky`` pseudo-random stream.
ENV_SEED = "REPRO_FAULT_SEED"
#: Rungs the injected faults apply to (the primary backend's attempts).
FAULT_TARGET_RUNGS = ("highs", "highs-relaxed")

#: Valid ``REPRO_FORCE_SOLVER`` values.
FORCE_CHOICES = ("highs", "branch_bound", "greedy")

_KINDS = ("timeout", "crash", "no_incumbent", "flaky")

#: Monotonic attempt counter feeding the deterministic ``flaky`` stream.
_attempt_index = 0


@dataclass(frozen=True)
class FaultSpec:
    """Parsed form of ``REPRO_INJECT_SOLVER_FAULT``."""

    kind: str
    probability: float = 1.0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``timeout|crash|no_incumbent|flaky:<p>`` (raises on junk)."""
        spec = text.strip()
        if spec.startswith("flaky"):
            _, _, prob = spec.partition(":")
            try:
                p = float(prob) if prob else 1.0
            except ValueError as exc:
                raise SolverError(f"bad flaky probability {prob!r} in {ENV_FAULT}") from exc
            if not 0.0 <= p <= 1.0:
                raise SolverError(f"flaky probability must be in [0, 1], got {p}")
            return cls("flaky", p)
        if spec not in _KINDS:
            raise SolverError(
                f"unknown {ENV_FAULT} value {text!r}; "
                f"expected one of {', '.join(_KINDS[:-1])} or flaky:<p>"
            )
        return cls(spec)


def active_fault() -> Optional[FaultSpec]:
    """The armed fault, or ``None`` when the environment is clean."""
    raw = os.environ.get(ENV_FAULT, "").strip()
    return FaultSpec.parse(raw) if raw else None


def forced_solver() -> Optional[str]:
    """The pinned rung from ``REPRO_FORCE_SOLVER``, or ``None``."""
    raw = os.environ.get(ENV_FORCE, "").strip()
    if not raw:
        return None
    if raw not in FORCE_CHOICES:
        raise SolverError(
            f"unknown {ENV_FORCE} value {raw!r}; expected one of {FORCE_CHOICES}"
        )
    return raw


def environment_token() -> str:
    """Cache-key token covering the solver-altering environment.

    Empty in a clean environment, so existing digests are unchanged when
    no variable is set.
    """
    fault = os.environ.get(ENV_FAULT, "").strip()
    force = os.environ.get(ENV_FORCE, "").strip()
    if not fault and not force:
        return ""
    return f"fault={fault};force={force}"


def reset() -> None:
    """Rewind the deterministic ``flaky`` stream (used by tests)."""
    global _attempt_index
    _attempt_index = 0


def maybe_inject(rung: str) -> Optional[Solution]:
    """Apply the armed fault to one rung attempt.

    Returns ``None`` when the attempt should proceed normally, a degraded
    :class:`Solution` for ``timeout`` / ``no_incumbent``, and raises
    :class:`SolverError` for ``crash`` (and firing ``flaky`` draws).
    """
    global _attempt_index
    spec = active_fault()
    if spec is None or rung not in FAULT_TARGET_RUNGS:
        return None
    if spec.kind == "crash":
        raise SolverError(f"injected crash on rung {rung!r}")
    if spec.kind == "flaky":
        seed = os.environ.get(ENV_SEED, "0")
        draw = random.Random(f"{seed}:{_attempt_index}").random()
        _attempt_index += 1
        if draw < spec.probability:
            raise SolverError(f"injected flaky crash on rung {rung!r} (p={spec.probability})")
        return None
    if spec.kind == "timeout":
        return Solution(
            SolveStatus.ERROR,
            message=f"injected fault: time limit reached without incumbent on {rung!r}",
        )
    return Solution(
        SolveStatus.ERROR,
        message=f"injected fault: no incumbent available on {rung!r}",
    )
