"""A pure-Python branch-and-bound MILP solver.

This is the fallback/teaching backend: LP relaxations are solved by HiGHS's
dual simplex through :class:`repro.ilp.highs.LoadedProblem`, handed the problem
``scipy.optimize.linprog(method="highs")`` handed it, and integrality is
enforced by branching on the most fractional variable.  The relaxation
is read into HiGHS once per solve; each node moves only the column bounds
that differ and re-solves it cold.
It is exact but much slower than :func:`repro.ilp.solver.solve`; the test
suite uses it to cross-check the primary backend on small models, and the
degradation ladder falls back to it when the MILP rungs fail.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ilp.highs import LP_OPTIONS, LoadedProblem, Problem, column_wise
from repro.ilp.model import SENSE_CODES, Model
from repro.ilp.solution import Solution, SolveStatus

#: Tolerance under which a relaxation value counts as integral.
_INT_TOL = 1e-6

#: How far an "optimal" relaxation may leave its bounds and rows before it
#: is rejected: ``linprog``'s ``_check_result`` at its default ``tol=1e-9``.
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its relaxation bound."""

    bound: float
    counter: int
    lower: List[float] = None  # type: ignore[assignment]
    upper: List[float] = None  # type: ignore[assignment]


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

        sign = -1.0 if model.objective_sense == "max" else 1.0
        problem, c, rhs, n_ub = self._standard_form(model, sign)

        integral = [v.index for v in model.variables if v.is_integral]
        root_lower = [float(v.lb) for v in model.variables]
        root_upper = [float(v.ub) for v in model.variables]
        lp = LoadedProblem(problem, root_lower, root_upper, LP_OPTIONS)
        del problem  # HiGHS holds the relaxation; free its arrays for the search

        counter = itertools.count()
        heap: List[_Node] = []
        root_bound = -math.inf
        heapq.heappush(_heap := heap, _Node(root_bound, next(counter), root_lower, root_upper))

        best_x: Optional[List[float]] = None
        best_obj = math.inf
        if incumbent is not None and incumbent.status.has_solution:
            warm = self._warm_point(model, incumbent)
            if warm is not None:
                best_x = warm
                best_obj = math.fsum(coef * value for coef, value in zip(c, warm))
        explored = 0
        proven_infeasible_root = False

        while heap:
            if time.perf_counter() - started > self.time_limit_s or explored >= self.max_nodes:
                break
            node = heapq.heappop(heap)
            if node.bound >= best_obj - 1e-9:
                continue
            explored += 1

            res = self._solve_lp(lp, rhs, n_ub, node.lower, node.upper)
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
            down_upper[frac_idx] = float(math.floor(value))
            up_lower = node.lower.copy()
            up_lower[frac_idx] = float(math.ceil(value))
            if node.lower[frac_idx] <= down_upper[frac_idx]:
                heapq.heappush(heap, _Node(obj, next(counter), node.lower, down_upper))
            if up_lower[frac_idx] <= node.upper[frac_idx]:
                heapq.heappush(heap, _Node(obj, next(counter), up_lower, node.upper))

        elapsed = time.perf_counter() - started
        if best_x is None:
            if proven_infeasible_root and not heap:
                return Solution(SolveStatus.INFEASIBLE, solve_time_s=elapsed)
            status = SolveStatus.INFEASIBLE if not heap else SolveStatus.ERROR
            return Solution(status, solve_time_s=elapsed, message="no incumbent found")

        status = SolveStatus.OPTIMAL if not heap else SolveStatus.FEASIBLE
        # The smallest open relaxation bound is a valid lower bound (in
        # the minimization space ``c`` lives in) on any solution still
        # reachable; with the heap empty the incumbent is proven optimal.
        lower = min([best_obj] + [node.bound for node in heap])
        gap = bound = None
        if math.isfinite(lower):
            bound = model.objective.constant + sign * lower
            if heap:  # limit-hit: the incumbent's distance to it is an honest gap
                denom = max(abs(best_obj), 1e-9)
                gap = max(0.0, (best_obj - lower) / denom)
        values: Dict = {}
        for var in model.variables:
            raw = float(best_x[var.index])
            values[var] = float(round(raw)) if var.is_integral else raw
        objective = model.objective.constant + sum(
            coef * values[var] for var, coef in model.objective.terms.items()
        )
        return Solution(
            status, objective, values, solve_time_s=elapsed, mip_gap=gap, mip_dual_bound=bound
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _warm_point(model: Model, incumbent: Solution) -> Optional[List[float]]:
        """The incumbent as a dense point in this model's variable order."""
        x = [0.0] * len(model.variables)
        for var in model.variables:
            value = incumbent.values.get(var)
            if value is None:
                return None
            x[var.index] = float(value)
        return x

    @staticmethod
    def _standard_form(model: Model, sign: float):
        """The rows as ``lhs <= A @ x <= rhs`` with ``A = [A_ub; A_eq]``.

        ``>=`` rows are negated into ``<=`` rows; both kinds keep their
        model order in the ``n_ub`` leading rows (``lhs = -inf``),
        equalities follow (``lhs = rhs = b_eq``), as ``linprog`` stacks
        them.  The objective is ``sign * c``.  Returns the
        :class:`~repro.ilp.highs.Problem`, the objective, ``rhs`` and
        ``n_ub``.
        """
        c = array("d", [0.0]) * len(model.variables)
        for var, coef in model.objective.terms.items():
            c[var.index] += coef
        c = array("d", [sign * coef for coef in c])

        rows = model.row_matrix()
        eq_code, ge_code = SENSE_CODES["=="], SENSE_CODES[">="]
        ub = [i for i, code in enumerate(rows.sense) if code != eq_code]
        eq = [i for i, code in enumerate(rows.sense) if code == eq_code]
        indptr, indices, data = array("q", [0]), array("q"), array("d")
        lhs, rhs = array("d"), array("d")
        for i in ub + eq:
            begin, end = rows.indptr[i], rows.indptr[i + 1]
            indices.extend(rows.indices[begin:end])
            if rows.sense[i] == ge_code:
                data.extend([-value for value in rows.data[begin:end]])
                rhs.append(-rows.rhs[i])
            else:
                data.extend(rows.data[begin:end])
                rhs.append(rows.rhs[i])
            lhs.append(rows.rhs[i] if rows.sense[i] == eq_code else -math.inf)
            indptr.append(len(indices))
        a = column_wise(indptr, indices, data, len(model.variables))
        return Problem(c, a, lhs, rhs), c, rhs, len(ub)

    @staticmethod
    def _solve_lp(
        lp: LoadedProblem, rhs: Sequence[float], n_ub: int,
        lower: List[float], upper: List[float],
    ) -> Optional[Tuple[float, List[float]]]:
        """Solve one LP relaxation; ``None`` unless HiGHS proves it optimal
        and the point passes ``linprog``'s bound and residual check."""
        res = lp.solve(lower, upper)
        if res.status != 0 or res.x is None:
            return None
        x, tol = res.x, _LP_CHECK_TOL
        slack = [b - value for b, value in zip(rhs, res.row_value)]
        if any(map(math.isnan, x)) or math.isnan(res.fun) or any(map(math.isnan, slack)):
            return None
        if not all(lo - tol <= v <= hi + tol for v, lo, hi in zip(x, lower, upper)):
            return None
        if any(s < -tol for s in slack[:n_ub]) or any(abs(s) > tol for s in slack[n_ub:]):
            return None
        return float(res.fun), x

    @staticmethod
    def _most_fractional(x: List[float], integral: List[int]) -> Optional[int]:
        """Index of the integral variable farthest from an integer value."""
        best_idx, best_dist = None, _INT_TOL
        for i in integral:
            dist = abs(x[i] - round(x[i]))
            if dist > best_dist:
                best_idx, best_dist = i, dist
        return best_idx
