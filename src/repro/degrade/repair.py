"""Online fault detection and plan repair (detect → replan loop).

The static matrix (:mod:`repro.degrade.model`) answers "can we still wash
on a chip that shipped broken?".  This module answers the harder runtime
question: a channel fails *while the plan is executing*.  The loop:

1. **inject** — a :class:`ChannelFailure` marks one node dead from a
   failure tick (picked deterministically by :func:`pick_online_fault`,
   or supplied as ``node@tick``),
2. **detect** — the :class:`~repro.sim.executor.ScheduleExecutor` replays
   the plan with the dead-node monitor armed; the first
   ``dead_node_traversed`` anomaly is the first violated interval,
3. **replan** — the failed node joins the config's degradation spec
   (``dead=`` in the token), and :func:`~repro.core.pdw.optimize_washes`
   re-runs: only clusters whose candidate pools touch the node regenerate
   (the pathgen stage reuses healthy pools verbatim), and the ILP
   warm-starts from the healthy incumbent via the structure-digest
   fallback,
4. **re-validate** — the repaired plan replays with the *actual* failure
   tick (tasks that finished on the node before it died are legitimately
   unaffected); remaining violations iterate the loop.

A violated interval belonging to a *baseline* task (not a wash) is
unrepairable — washing cannot reroute the assay itself — and is reported
as ``infeasible`` rather than retried.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import PDWConfig
from repro.core.pdw import optimize_washes
from repro.core.plan import WashPlan
from repro.degrade.model import DegradationSpec, parse_spec
from repro.errors import DegradationError, DegradedInfeasibleError, WashError
from repro.obs.metrics import registry
from repro.obs.trace import span
from repro.schedule.tasks import TaskKind
from repro.sim.events import SimEvent, SimEventKind
from repro.sim.executor import ScheduleExecutor
from repro.sim.validate import degraded_validation_problems
from repro.synth.synthesis import SynthesisResult

#: Upper bound on detect→replan rounds before declaring defeat.  One
#: round repairs a single-node failure; the headroom covers repairs whose
#: rerouted washes themselves get caught by the monitor.
MAX_ROUNDS = 4

#: Bucket bounds (seconds) for the repair-latency histogram.
REPAIR_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)


@dataclass(frozen=True)
class ChannelFailure:
    """One injected fault: ``node`` stops conducting at tick ``time``."""

    node: str
    time: int

    def __str__(self) -> str:
        return f"{self.node}@{self.time}"


@dataclass(frozen=True)
class RepairRecord:
    """One detect→replan round (embedded in plan JSON as ``repairs``)."""

    round: int
    node: str
    fail_time: int
    #: Task owning the first violated interval.
    detected_task: str
    #: The violated interval itself.
    window: Tuple[Optional[int], Optional[int]]
    #: ``replanned`` | ``clean`` | ``infeasible``.
    outcome: str
    warm_started: bool = False
    rung: str = ""
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "round": self.round,
            "node": self.node,
            "fail_time": self.fail_time,
            "detected_task": self.detected_task,
            "window": list(self.window),
            "outcome": self.outcome,
            "warm_started": self.warm_started,
            "rung": self.rung,
            "wall_s": round(self.wall_s, 6),
        }


@dataclass
class RepairResult:
    """Outcome of one online fault scenario."""

    #: ``repaired`` (full coverage, validator-clean) | ``degraded``
    #: (validator-clean with reported coverage gaps) | ``infeasible``.
    status: str
    plan: WashPlan
    failure: ChannelFailure
    records: Tuple[RepairRecord, ...] = ()
    detail: str = ""


def parse_fault(text: str, plan: WashPlan, synthesis: SynthesisResult) -> ChannelFailure:
    """Resolve a CLI fault spec: ``auto`` or ``node@tick``."""
    text = text.strip()
    if text in ("", "auto"):
        fault = pick_online_fault(plan, synthesis)
        if fault is None:
            raise DegradationError(
                "cannot auto-pick an online fault: no wash path has a "
                "non-port node free of later baseline traffic"
            )
        return fault
    node, sep, tick = text.partition("@")
    if not sep:
        raise DegradationError(
            f"malformed online fault {text!r} (expected 'auto' or 'node@tick')"
        )
    if not synthesis.chip.has_node(node):
        raise DegradationError(f"online fault names unknown chip node {node!r}")
    try:
        when = int(tick)
    except ValueError:
        raise DegradationError(
            f"online fault tick {tick!r} is not an integer"
        ) from None
    return ChannelFailure(node=node, time=when)


def pick_online_fault(plan: WashPlan, synthesis: SynthesisResult) -> Optional[ChannelFailure]:
    """Deterministically pick a *repairable* mid-execution fault.

    Walks washes latest-first and returns the first non-port wash-path
    node that no baseline task occupies at or after the failure tick
    (one tick before the wash starts).  Such a fault violates only wash
    intervals, so the repair loop has something to fix — exactly the
    scenario the CI degrade job pins.  Returns ``None`` when the plan
    has no washes (nothing to break that washing could repair).
    """
    chip = plan.chip
    baseline_tasks = [
        t for t in plan.schedule.tasks() if t.kind is not TaskKind.WASH
    ]
    for wash in sorted(plan.washes, key=lambda w: (-w.start, w.id)):
        fail_at = max(1, wash.start - 1)
        for node in wash.path:
            if chip.is_port(node):
                continue
            blocked = any(
                task.end > fail_at
                and (node in (task.path or ()) or task.device == node)
                for task in baseline_tasks
            )
            if not blocked:
                return ChannelFailure(node=node, time=fail_at)
    return None


def detect_first_violation(
    plan: WashPlan, synthesis: SynthesisResult, failure: ChannelFailure
) -> Optional[SimEvent]:
    """The first interval violated by ``failure``, or ``None`` if clean.

    Replays the schedule through the executor with the dead-node monitor
    armed at the failure tick; the earliest ``dead_node_traversed``
    anomaly (by start tick, then task id) is the detection the repair
    loop acts on.
    """
    with span("degrade.detect", node=failure.node, tick=failure.time) as sp:
        report = ScheduleExecutor(
            synthesis, plan.schedule, dead_nodes={failure.node: failure.time}
        ).run()
        hits = [
            e
            for e in report.anomalies
            if e.kind is SimEventKind.DEAD_NODE_TRAVERSED
        ]
        sp.set("violations", len(hits))
        if not hits:
            return None
        first = min(hits, key=lambda e: (e.time, e.task_id))
        registry().counter("pdw_degrade_detections_total").inc()
        return first


def _spec_with_node(config: PDWConfig, node: str) -> DegradationSpec:
    """The config's degradation spec extended with the failed node."""
    if config.degrade:
        return parse_spec(config.degrade).with_dead([node])
    return DegradationSpec(dead=(node,))


def _plan_status(plan: WashPlan) -> str:
    """``repaired`` or ``degraded`` from the plan's coverage."""
    info = getattr(plan, "degradation", None)
    if info is not None and info.coverage < 1.0:
        return "degraded"
    return "repaired"


def repair_plan(
    plan: WashPlan,
    synthesis: SynthesisResult,
    config: Optional[PDWConfig] = None,
    failure: Optional[ChannelFailure] = None,
    cache=None,
) -> RepairResult:
    """Run the online detect→replan loop for one injected fault.

    Returns a :class:`RepairResult` whose plan is validator-clean for
    ``repaired``/``degraded`` statuses; ``infeasible`` keeps the last
    plan attempted with the unrepairable violation in ``detail``.  The
    final plan carries the round history on ``plan.repairs``.
    """
    config = config if config is not None else PDWConfig()
    if failure is None:
        failure = pick_online_fault(plan, synthesis)
        if failure is None:
            return RepairResult(
                status="repaired",
                plan=plan,
                failure=ChannelFailure("", -1),
                detail="plan has no washes; nothing to repair",
            )
    reg = registry()
    reg.counter("pdw_degrade_faults_injected_total").inc()

    records: List[RepairRecord] = []
    current = plan
    status = "infeasible"
    detail = ""
    started = _time.perf_counter()
    with span("degrade.repair", node=failure.node, tick=failure.time) as sp:
        for round_no in range(1, MAX_ROUNDS + 1):
            violation = detect_first_violation(current, synthesis, failure)
            if violation is None:
                status = _plan_status(current) if records else "repaired"
                break
            task = current.schedule.get(violation.task_id)
            window = (task.start, task.end)
            if task.kind is not TaskKind.WASH:
                detail = (
                    f"baseline task {task.id!r} occupies {failure.node} in "
                    f"[{task.start}, {task.end}); washing cannot reroute it"
                )
                records.append(
                    RepairRecord(
                        round=round_no,
                        node=failure.node,
                        fail_time=failure.time,
                        detected_task=task.id,
                        window=window,
                        outcome="infeasible",
                    )
                )
                status = "infeasible"
                break
            round_started = _time.perf_counter()
            spec = _spec_with_node(config, failure.node)
            repaired_config = dataclasses.replace(config, degrade=spec.token())
            try:
                current = optimize_washes(
                    synthesis, repaired_config, verify=False, cache=cache
                )
            except (DegradedInfeasibleError, WashError) as exc:
                detail = f"replan failed: {exc}"
                records.append(
                    RepairRecord(
                        round=round_no,
                        node=failure.node,
                        fail_time=failure.time,
                        detected_task=task.id,
                        window=window,
                        outcome="infeasible",
                        wall_s=_time.perf_counter() - round_started,
                    )
                )
                status = "infeasible"
                break
            records.append(
                RepairRecord(
                    round=round_no,
                    node=failure.node,
                    fail_time=failure.time,
                    detected_task=task.id,
                    window=window,
                    outcome="replanned",
                    warm_started=bool(current.notes.get("stage.ilp.warm_started")),
                    rung=current.solver_rung,
                    wall_s=_time.perf_counter() - round_started,
                )
            )
        else:
            detail = f"violations persisted after {MAX_ROUNDS} repair rounds"

        if status in ("repaired", "degraded") and records:
            # The repaired plan must replay cleanly against the *actual*
            # failure tick — tasks done with the node before it died are
            # fine, everything else is a real problem.
            info = getattr(current, "degradation", None)
            uncovered = frozenset(info.uncovered_targets) if info else frozenset()
            problems, _ = degraded_validation_problems(
                current, synthesis, {failure.node: failure.time}, uncovered
            )
            if problems:
                status = "infeasible"
                detail = f"repaired plan fails validation: {problems[0]}"

        wall = _time.perf_counter() - started
        sp.set("status", status)
        sp.set("rounds", len(records))
        reg.counter("pdw_degrade_repairs_total", outcome=status).inc()
        reg.histogram("pdw_degrade_repair_seconds", buckets=REPAIR_BUCKETS).observe(wall)

    current.repairs = tuple(records)
    return RepairResult(
        status=status,
        plan=current,
        failure=failure,
        records=tuple(records),
        detail=detail,
    )
