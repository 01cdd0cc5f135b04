"""Machine-readable wash-plan export."""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.plan import WashPlan


def plan_to_dict(plan: WashPlan) -> Dict[str, Any]:
    """Serialize a wash plan (schedule + washes + metrics) to plain data."""
    out = {
        "method": plan.method,
        "chip": plan.chip.name,
        "solver_status": plan.solver_status,
        "solver_rung": plan.solver_rung,
        "solve_time_s": round(plan.solve_time_s, 4),
        "metrics": plan.metrics(),
        "baseline_makespan_s": plan.baseline_makespan,
        "tasks": [
            {
                "id": task.id,
                "kind": task.kind.value,
                "start_s": task.start,
                "duration_s": task.duration,
                "path": list(task.path) if task.path else None,
                "device": task.device,
                "fluid_type": task.fluid_type,
                "edge": list(task.edge) if task.edge else None,
            }
            for task in plan.schedule.tasks()
        ],
        "washes": [
            {
                "id": wash.id,
                "start_s": wash.start,
                "duration_s": wash.duration,
                "path": list(wash.path),
                "targets": sorted(wash.targets),
                "absorbed_removals": list(wash.absorbed_removals),
            }
            for wash in plan.washes
        ],
    }
    degradation = getattr(plan, "degradation", None)
    if degradation is not None:
        out["degradation"] = degradation.as_dict()
    repairs = getattr(plan, "repairs", ()) or ()
    if repairs:
        out["repairs"] = [record.as_dict() for record in repairs]
    if plan.report is not None:
        out["pipeline"] = plan.report.as_dict()
    return out


def plan_to_json(plan: WashPlan, indent: int = 2) -> str:
    """Serialize a wash plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent)


def canonical_plan_dict(plan: WashPlan) -> Dict[str, Any]:
    """The timing-free view of a plan: byte-stable across identical runs.

    Drops the volatile fields — ``solve_time_s`` and the ``pipeline``
    report (wall times, cache origins, queue waits) — leaving exactly the
    *decisions*: schedule, washes, metrics, solver status/rung.  Two runs
    of the same inputs must produce identical canonical dicts regardless
    of caching, worker count or process, which is what the suite
    engine's determinism test and the CI ``suite-engine`` and ``serve``
    plan diffs assert.
    """
    out = plan_to_dict(plan)
    out.pop("pipeline", None)
    out.pop("solve_time_s", None)
    # Repair rounds carry wall-clock latencies; the decisions stay.
    for record in out.get("repairs", ()):
        record.pop("wall_s", None)
    return out


def canonical_plan_json(plan: WashPlan, indent: int = 2) -> str:
    """Canonical (timing-free) plan serialization with sorted keys."""
    return json.dumps(canonical_plan_dict(plan), indent=indent, sort_keys=True)
