"""A relaxed monolithic model: lower bounds on the PDW objective.

The default :class:`~repro.core.schedule_ilp.WashScheduleIlp` keeps the
relative order of node-sharing baseline tasks fixed, because the
wash-necessity analysis (which tasks contaminate, which are blocked) was
computed against that order.  Removing the order constraints yields the
paper's unrestricted formulation (free ordering binaries per conflicting
pair, Eqs. 3 and 8) — but a schedule extracted from it may violate the
precomputed necessity assumptions, so this module exposes the relaxation
only as a *bound*:

:func:`objective_lower_bound` solves the free-ordering model and returns
the solver's proven dual bound on its objective, which is <= the
decomposed model's objective even where the relaxed incumbent is not
(``benchmarks/bench_decomposition.py`` reports the gap).  The decomposed
plan seeds the relaxed solve's branch-and-bound rung, so that rung bounds
from its root even where it finds no better plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.arch.chip import Chip, FlowPath
from repro.core.config import PDWConfig
from repro.core.schedule_ilp import WashScheduleIlp
from repro.core.targets import WashCluster
from repro.ilp import LinExpr, Solution, SolveStatus, SolverPortfolio
from repro.ilp.incremental import ADOPT_TOL, adopt_incumbent
from repro.schedule.schedule import Schedule
from repro.schedule.tasks import TaskKind


class MonolithicWashIlp(WashScheduleIlp):
    """Eqs. (1)-(26) with free re-ordering of conflicting tasks.

    Only used for bounding: extracted schedules are NOT guaranteed to be
    contamination-safe (see module docstring).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Presolve reasons over the *fixed* baseline order and the
        # baseline-start lower bounds; both are relaxed here, so every
        # deduction it makes would be unsound for this model.
        self.presolve_enabled = False

    def build(self) -> None:
        super().build()
        # Free ordering also removes the baseline-start lower bounds the
        # decomposed model imposes.
        for task in self.tasks:
            self._t[task.id].lb = 0.0

    def _add_baseline_order(self, emitted: set) -> None:  # overrides the fixed-order pass
        m = self.model
        ordered = sorted(self.tasks, key=lambda t: (t.start, t.end, t.id))
        structural = self._structural_pairs()
        for i, a in enumerate(ordered):
            nodes_a = set(a.occupied_nodes)
            for b in ordered[i + 1:]:
                if a.kind is TaskKind.OPERATION and b.kind is TaskKind.OPERATION:
                    if a.device != b.device:
                        continue
                elif not (nodes_a & set(b.occupied_nodes)):
                    continue
                if (a.id, b.id) in structural or (b.id, a.id) in structural:
                    continue  # precedence already decides the order
                m.add_disjunction(
                    (self._end_expr(a), LinExpr.from_any(self._t[b.id])),
                    (self._end_expr(b), LinExpr.from_any(self._t[a.id])),
                    name=f"free[{a.id},{b.id}]",
                )

    def _structural_pairs(self) -> set:
        """(earlier, later) pairs already ordered by Eqs. 2/4/5 precedences."""
        pairs = set()
        op_task = {
            t.op_id: t for t in self.tasks if t.kind is TaskKind.OPERATION
        }
        by_edge: Dict = {}
        for task in self.tasks:
            if task.edge is not None:
                by_edge.setdefault(task.edge, {})[task.kind] = task
        for (src, dst), group in by_edge.items():
            transport = group.get(TaskKind.TRANSPORT)
            removal = group.get(TaskKind.REMOVAL)
            waste = group.get(TaskKind.WASTE)
            producer = op_task.get(src)
            consumer = op_task.get(dst)
            chain = [t for t in (producer, transport, removal, consumer) if t]
            for a, b in zip(chain, chain[1:]):
                pairs.add((a.id, b.id))
            if waste is not None and producer is not None:
                pairs.add((producer.id, waste.id))
        return pairs


@dataclass(frozen=True)
class BoundComparison:
    """Decomposed objective vs the free-ordering lower bound."""

    decomposed_objective: float
    #: The relaxed solve's proven dual bound (``-inf`` when none is known);
    #: sound whether it ended ``OPTIMAL`` or at a limit (``FEASIBLE``).
    relaxed_bound: float
    relaxed_status: SolveStatus

    @property
    def gap(self) -> float:
        """Absolute objective gap conceded by the decomposition."""
        return self.decomposed_objective - self.relaxed_bound

    @property
    def gap_percent(self) -> float:
        """Relative gap in percent of the decomposed objective."""
        if self.decomposed_objective == 0:
            return 0.0
        return 100.0 * self.gap / self.decomposed_objective


def objective_lower_bound(
    chip: Chip,
    baseline: Schedule,
    clusters: Sequence[WashCluster],
    candidates: Dict[str, List[FlowPath]],
    config: Optional[PDWConfig] = None,
) -> BoundComparison:
    """Solve both models and report the decomposition gap."""
    config = config if config is not None else PDWConfig()
    decomposed = WashScheduleIlp(chip, baseline, list(clusters), candidates, config)
    relaxed = MonolithicWashIlp(chip, baseline, list(clusters), candidates, config)
    decomposed_objective = decomposed.solve().objective
    relaxed.ensure_built()
    incumbent = _seed_point(relaxed, decomposed.last_solution)
    relaxed.solve(SolverPortfolio.from_config(config, incumbent=incumbent))
    solution = relaxed.last_solution
    bound = -math.inf if solution.mip_dual_bound is None else solution.mip_dual_bound
    return BoundComparison(decomposed_objective, bound, solution.status)


def _seed_point(relaxed: MonolithicWashIlp, decomposed: Solution) -> Optional[Solution]:
    """The decomposed plan as a point of the free-ordering model.

    The relaxation only drops rows, so that plan is feasible here.  The
    binaries the decomposed model never built (presolve-dropped candidates
    and order binaries, the free-ordering binaries) start at 0 and flip to
    1 where a row they enter is violated; :func:`adopt_incumbent` vets the
    point, and a rejected one leaves the solve cold.
    """
    model = relaxed.model
    known = decomposed.as_name_map()
    x = [known.get(var.name, 0.0) for var in model.variables]
    rows = model.row_matrix()
    for i, (value, lo, hi) in enumerate(zip(rows.activities(x), rows.lo, rows.hi)):
        if max(value - hi, lo - value) > ADOPT_TOL:
            for col in rows.indices[rows.indptr[i]:rows.indptr[i + 1]]:
                if model.variables[col].name not in known:
                    x[col] = 1.0
    return adopt_incumbent(model, {var.name: x[var.index] for var in model.variables})
