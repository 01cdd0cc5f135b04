"""Warm-started re-solve for structurally similar models.

Two PDW scheduling jobs that differ only in objective weights (the Pareto
sweep's alpha/beta/gamma points) or in nothing at all build the same
constraint system, up to presolve's weight-dependent candidate pruning
(see :func:`structure_key`), so the previous job's incumbent is usually a
feasible point of the new one.

This module provides the two halves of exploiting that:

* **structure identity** — :func:`structure_digest` hashes the inputs
  that shape the constraint system: the synthesis digest plus the
  candidate-affecting config knobs (the same fields the pathgen stage
  keys on) plus the solver-altering environment.  Objective weights,
  budgets and solver selections are deliberately excluded.
* **incumbent reuse** — :func:`store_incumbent` /
  :func:`load_incumbent` persist the winning assignment (keyed by
  variable *name*, digest-addressed in the artifact cache) and
  :func:`adopt_incumbent` re-keys it onto a freshly built model,
  **verifying it against every constraint** before anyone trusts it.
  The adopted solution warm-starts the branch-and-bound rung (pruning
  from the first node); the HiGHS MILP call passes HiGHS no starting
  point, so healthy primary-rung solves remain byte-identical with or
  without a warm incumbent.

Every reuse decision is observable through the
``pdw_ilp_warm_start_total{outcome=...}`` counter.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.ilp import faults
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus
from repro.obs import metrics as obs_metrics

#: Constraint-violation tolerance when vetting a stored incumbent.
ADOPT_TOL = 1e-5


def observe(outcome: str) -> None:
    """Count one warm-start decision (``pdw_ilp_warm_start_total``)."""
    obs_metrics.registry().counter(
        "pdw_ilp_warm_start_total", outcome=outcome
    ).inc()


def structure_key(synthesis_digest: str, config: Any) -> Tuple:
    """Cache-key material covering the model *structure* only.

    Mirrors the pathgen stage key — everything that shapes clusters and
    candidate pools — plus the solver-altering environment.  Weights
    (alpha/beta/gamma), budgets (``time_limit_s``, ``mip_gap``) and
    solver pins are excluded, so jobs differing only in those share one
    key.  The key is not exact: presolve's dominated-candidate rule
    (:mod:`repro.ilp.presolve`, rule 5) runs only while beta > 0, so a
    beta = 0 twin can keep a larger candidate pool and so more
    variables.  What keeps priming safe is :func:`adopt_incumbent`: it
    rejects an assignment that misses a variable of the model (the
    beta = 0 side's extra candidates) or breaks any of its rows.
    """
    necessity = getattr(config, "necessity", None)
    return (
        synthesis_digest,
        getattr(necessity, "value", str(necessity)),
        getattr(config, "merge_clusters", True),
        getattr(config, "max_wash_path_mm", 0.0),
        getattr(config, "max_candidates", 0),
        getattr(config, "path_mode", ""),
        getattr(config, "enable_integration", True),
        getattr(config, "integration_window_s", 0.0),
        # The degradation token reshapes clusters and candidate pools, so
        # repaired/degraded incumbents never collide with healthy ones.
        getattr(config, "degrade", ""),
        # Presolve reshapes variable bounds and the candidate pool, so
        # reduced and raw structures must never share an incumbent slot.
        getattr(config, "presolve", "on"),
        faults.environment_token(),
    )


def structure_digest(synthesis_digest: str, config: Any) -> str:
    """Stable digest of :func:`structure_key` (artifact-cache addressable)."""
    from repro.pipeline.cache import stable_digest

    return stable_digest("ilp-incumbent", structure_key(synthesis_digest, config))


def store_incumbent(cache, digest: str, solution: Solution, config: Any) -> bool:
    """Persist a solve's winning assignment for future structural twins.

    Stores plain data only (variable *names*, not :class:`Variable`
    objects, which hash by identity and would be useless cross-process).
    Returns whether anything was written.
    """
    if cache is None or not solution.status.has_solution:
        return False
    payload = {
        "values": {name: float(v) for name, v in solution.as_name_map().items()},
        "objective": solution.objective,
        "weights": (
            getattr(config, "alpha", None),
            getattr(config, "beta", None),
            getattr(config, "gamma", None),
        ),
    }
    cache.put(digest, payload)
    observe("stored")
    return True


def load_incumbent(cache, digest: str) -> Optional[Dict[str, Any]]:
    """The stored incumbent payload for this structure, or ``None``."""
    if cache is None:
        return None
    payload = cache.get(digest)
    if not isinstance(payload, dict) or not isinstance(payload.get("values"), dict):
        return None
    return payload


def adopt_incumbent(model: Model, values_by_name: Mapping[str, float]) -> Optional[Solution]:
    """Re-key a stored assignment onto ``model``, vetting it first.

    Returns a :class:`Solution` (status ``FEASIBLE``, objective evaluated
    under the model's *current* weights) suitable for priming the
    branch-and-bound rung — or ``None`` when the assignment does not
    cover every variable (a candidate delta changed the variable set) or
    violates any variable bound or constraint (it was never a feasible
    point of this structure — presolve may have tightened bounds since).
    Rejection is always safe: the solve proceeds cold.
    """
    values: Dict = {}
    for var in model.variables:
        stored = values_by_name.get(var.name)
        if stored is None:
            observe("rejected")
            return None
        value = float(stored)
        if value < var.lb - ADOPT_TOL or value > var.ub + ADOPT_TOL:
            observe("rejected")
            return None
        values[var] = value
    candidate = Solution(SolveStatus.FEASIBLE, values=values)
    if model.check_solution(candidate, tol=ADOPT_TOL):
        observe("rejected")
        return None
    candidate.objective = candidate.value(model.objective)
    observe("primed")
    return candidate

