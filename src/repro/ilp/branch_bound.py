"""A pure-Python branch-and-bound MILP solver.

This is the fallback/teaching backend: LP relaxations are solved by HiGHS's
dual simplex through :func:`repro.ilp.highs.run`, called as
``scipy.optimize.linprog(method="highs")`` called it, and integrality is
enforced by branching on the most fractional variable.  It is exact but much
slower than :func:`repro.ilp.solver.solve`; the test suite uses it to
cross-check the primary backend on small models, and the degradation ladder
falls back to it when the MILP rungs fail.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ilp.highs import LP_OPTIONS, column_wise, run as run_highs
from repro.ilp.model import SENSE_CODES, Model
from repro.ilp.solution import Solution, SolveStatus

#: Tolerance under which a relaxation value counts as integral.
_INT_TOL = 1e-6

#: How far an "optimal" relaxation may leave its bounds and rows before it
#: is rejected: ``linprog``'s ``_check_result`` at its default ``tol=1e-9``.
_LP_CHECK_TOL = math.sqrt(1e-9) * 10

#: No integrality: every relaxation is solved as a pure LP.
_NO_INTEGRALITY = np.empty(0, dtype=np.uint8)


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its relaxation bound."""

    bound: float
    counter: int
    lower: np.ndarray = None  # type: ignore[assignment]
    upper: np.ndarray = None  # type: ignore[assignment]


class BranchAndBoundSolver:
    """Best-first branch-and-bound over LP relaxations.

    Parameters
    ----------
    time_limit_s:
        Wall-clock budget; on expiry the best incumbent (if any) is
        returned with :attr:`SolveStatus.FEASIBLE`.
    max_nodes:
        Hard cap on explored nodes, as a runaway guard.
    """

    def __init__(self, time_limit_s: float = 60.0, max_nodes: int = 200_000):
        self.time_limit_s = time_limit_s
        self.max_nodes = max_nodes

    # -- public API -------------------------------------------------------

    def __call__(self, model: Model) -> Solution:
        return self.solve(model)

    def solve(self, model: Model, incumbent: Optional[Solution] = None) -> Solution:
        """Solve ``model`` to optimality (or best effort within limits).

        ``incumbent`` optionally warm-starts the search: a known-feasible
        solution of the *same* model (e.g. from an earlier solve that
        differed only in objective weights) becomes the initial best, so
        every node whose relaxation bound cannot beat it is pruned from
        the first pop.  An incumbent that does not cover every variable
        is ignored — feasibility is the caller's contract (see
        :func:`repro.ilp.incremental.adopt_incumbent`, which verifies it
        against the constraints before passing it here).
        """
        started = time.perf_counter()
        n = len(model.variables)
        if n == 0:
            return Solution(SolveStatus.OPTIMAL, model.objective.constant, {})

        c, a, lhs, rhs, n_ub = self._standard_form(model)
        sign = -1.0 if model.objective_sense == "max" else 1.0
        c = sign * c

        integral = np.array([v.is_integral for v in model.variables])
        root_lower = np.array([v.lb for v in model.variables])
        root_upper = np.array([v.ub for v in model.variables])

        counter = itertools.count()
        heap: List[_Node] = []
        root_bound = -math.inf
        heapq.heappush(_heap := heap, _Node(root_bound, next(counter), root_lower, root_upper))

        best_x: Optional[np.ndarray] = None
        best_obj = math.inf
        if incumbent is not None and incumbent.status.has_solution:
            warm = self._warm_point(model, incumbent)
            if warm is not None:
                best_x = warm
                best_obj = float(c @ warm)
        explored = 0
        proven_infeasible_root = False

        while heap:
            if time.perf_counter() - started > self.time_limit_s or explored >= self.max_nodes:
                break
            node = heapq.heappop(heap)
            if node.bound >= best_obj - 1e-9:
                continue
            explored += 1

            res = self._solve_lp(c, a, lhs, rhs, n_ub, node.lower, node.upper)
            if res is None:
                if explored == 1:
                    proven_infeasible_root = True
                continue
            obj, x = res
            if obj >= best_obj - 1e-9:
                continue

            frac_idx = self._most_fractional(x, integral)
            if frac_idx is None:
                best_obj, best_x = obj, x
                continue

            value = x[frac_idx]
            down_upper = node.upper.copy()
            down_upper[frac_idx] = math.floor(value)
            up_lower = node.lower.copy()
            up_lower[frac_idx] = math.ceil(value)
            if node.lower[frac_idx] <= down_upper[frac_idx]:
                heapq.heappush(heap, _Node(obj, next(counter), node.lower.copy(), down_upper))
            if up_lower[frac_idx] <= node.upper[frac_idx]:
                heapq.heappush(heap, _Node(obj, next(counter), up_lower, node.upper.copy()))

        elapsed = time.perf_counter() - started
        if best_x is None:
            if proven_infeasible_root and not heap:
                return Solution(SolveStatus.INFEASIBLE, solve_time_s=elapsed)
            status = SolveStatus.INFEASIBLE if not heap else SolveStatus.ERROR
            return Solution(status, solve_time_s=elapsed, message="no incumbent found")

        status = SolveStatus.OPTIMAL if not heap else SolveStatus.FEASIBLE
        gap = None
        if heap:
            # Limit-hit: the smallest open relaxation bound is a valid
            # lower bound (in the minimization space ``c`` lives in) on
            # any solution still reachable, so the relative distance from
            # the incumbent to it is an honest optimality gap.
            remaining = min(node.bound for node in heap)
            lower = min(remaining, best_obj)
            if math.isfinite(lower):
                denom = max(abs(best_obj), 1e-9)
                gap = max(0.0, (best_obj - lower) / denom)
        values: Dict = {}
        for var in model.variables:
            raw = float(best_x[var.index])
            values[var] = float(round(raw)) if var.is_integral else raw
        objective = model.objective.constant + sum(
            coef * values[var] for var, coef in model.objective.terms.items()
        )
        return Solution(status, objective, values, solve_time_s=elapsed, mip_gap=gap)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _warm_point(model: Model, incumbent: Solution) -> Optional[np.ndarray]:
        """The incumbent as a dense point in this model's variable order."""
        x = np.zeros(len(model.variables))
        for var in model.variables:
            value = incumbent.values.get(var)
            if value is None:
                return None
            x[var.index] = float(value)
        return x

    @staticmethod
    def _standard_form(model: Model):
        """The rows as ``lhs <= A @ x <= rhs`` with ``A = [A_ub; A_eq]``.

        ``>=`` rows are negated into ``<=`` rows; both kinds keep their
        model order in the ``n_ub`` leading rows (``lhs = -inf``),
        equalities follow (``lhs = rhs = b_eq``).  ``A`` is column-wise,
        as ``linprog`` stacks and converts it.  Returns
        ``(c, A, lhs, rhs, n_ub)``.
        """
        c = np.zeros(len(model.variables))
        for var, coef in model.objective.terms.items():
            c[var.index] += coef

        rows = model.row_matrix()
        is_eq = rows.sense == SENSE_CODES["=="]
        ub, eq = np.flatnonzero(~is_eq), np.flatnonzero(is_eq)
        position = np.empty(len(is_eq), dtype=np.int64)  # model row -> stacked row
        position[np.concatenate((ub, eq))] = np.arange(len(is_eq))
        sign = np.where(rows.sense == SENSE_CODES[">="], -1.0, 1.0)
        row_ids = rows.row_ids
        a = column_wise(
            position[row_ids], rows.indices, rows.data * sign[row_ids],
            len(is_eq), len(model.variables),
        )

        b_ub = sign[ub] * rows.rhs[ub]
        b_eq = rows.rhs[eq]
        lhs = np.concatenate((np.full(len(ub), -np.inf), b_eq))
        rhs = np.concatenate((b_ub, b_eq))
        return c, a, lhs, rhs, len(ub)

    @staticmethod
    def _solve_lp(c, a, lhs, rhs, n_ub, lower, upper) -> Optional[Tuple[float, np.ndarray]]:
        """Solve one LP relaxation; ``None`` unless HiGHS proves it optimal
        and the point passes ``linprog``'s bound and residual check."""
        res = run_highs(c, a, lhs, rhs, lower, upper, _NO_INTEGRALITY, LP_OPTIONS)
        if res.status != 0 or res.x is None:
            return None
        x, tol = res.x, _LP_CHECK_TOL
        slack = rhs - res.row_value
        if np.isnan(x).any() or np.isnan(res.fun) or np.isnan(slack).any():
            return None
        if not np.all((x >= lower - tol) & (x <= upper + tol)):
            return None
        if (slack[:n_ub] < -tol).any() or (np.abs(slack[n_ub:]) > tol).any():
            return None
        return float(res.fun), x

    @staticmethod
    def _most_fractional(x: np.ndarray, integral: np.ndarray) -> Optional[int]:
        """Index of the integral variable farthest from an integer value."""
        best_idx, best_dist = None, _INT_TOL
        for i in np.nonzero(integral)[0]:
            dist = abs(x[i] - round(x[i]))
            if dist > best_dist:
                best_idx, best_dist = int(i), dist
        return best_idx
