"""Solve results returned by the ILP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.ilp.expr import ExprLike, LinExpr, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``OPTIMAL``
        A provably optimal solution was found.
    ``FEASIBLE``
        A feasible (best-effort) solution was found but optimality was not
        proven — typically because the time limit was hit.  This mirrors the
        paper's 15-minute best-effort runs.
    ``INFEASIBLE`` / ``UNBOUNDED``
        The model was proven infeasible / unbounded.
    ``ERROR``
        The backend failed for another reason.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether variable values are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """Variable assignment plus solve metadata."""

    status: SolveStatus
    objective: float | None = None
    values: Dict[Variable, float] = field(default_factory=dict)
    solve_time_s: float = 0.0
    mip_gap: float | None = None
    #: The solver's proven bound on ``objective`` (below it when
    #: minimizing), or ``None`` when the backend proves none.
    mip_dual_bound: float | None = None
    message: str = ""

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value(self, expr: ExprLike) -> float:
        """Evaluate a variable or linear expression under this solution."""
        lin = LinExpr.from_any(expr)
        total = lin.constant
        for var, coef in lin.terms.items():
            total += coef * self.values[var]
        return total

    def rounded(self, var: Variable) -> int:
        """Integer value of an integral variable (guards tiny solver noise)."""
        return int(round(self.values[var]))

    def as_name_map(self) -> Mapping[str, float]:
        """Solution keyed by variable name, for logging/serialization."""
        return {v.name: x for v, x in self.values.items()}
