"""A small, self-contained (M)ILP modeling layer.

The paper solves its formulation with Gurobi; this package provides the
equivalent substrate without proprietary dependencies:

* :class:`~repro.ilp.expr.Variable` / :class:`~repro.ilp.expr.LinExpr` —
  linear expressions with natural operator overloading,
* :class:`~repro.ilp.model.Model` — constraint container with the big-M
  ordering disjunction the scheduling formulation builds on (Eqs. 2, 3,
  8, 19, 20); its rows live once, as ``array.array`` CSR buffers that
  :meth:`~repro.ilp.model.Model.row_matrix` copies out with row bounds,
* :func:`~repro.ilp.solver.solve` — exact solve by the HiGHS MILP solver,
  with time limits and best-effort status reporting,
* :class:`~repro.ilp.branch_bound.BranchAndBoundSolver` — a pure-Python
  branch-and-bound fallback whose LP relaxations HiGHS's dual simplex
  solves, useful for testing and as the ladder's last solving rung,
* :mod:`~repro.ilp.highs` — the one HiGHS entry point for both: SciPy's
  bundled binding, loaded without importing ``scipy.optimize`` and handed
  each problem as an EMS file, so no module here imports numpy,
* :class:`~repro.ilp.portfolio.SolverPortfolio` — the budgeted degradation
  ladder (HiGHS → relaxed retry → branch-and-bound) with per-rung
  :class:`~repro.ilp.portfolio.RungAttempt` instrumentation and
  deterministic fault injection (:mod:`repro.ilp.faults`) and
  warm-started incremental re-solve (:mod:`repro.ilp.incremental`),
* :func:`~repro.ilp.lpwriter.write_lp` — CPLEX LP-format export for
  debugging models offline.

Example
-------
>>> from repro.ilp import Model
>>> m = Model("toy")
>>> x = m.add_integer_var("x", lb=0, ub=10)
>>> y = m.add_integer_var("y", lb=0, ub=10)
>>> m.add_constr(x + y <= 7)
0
>>> m.set_objective(3 * x + 2 * y, sense="max")
>>> sol = m.solve()
>>> sol.objective
21.0

Every name resolves on first access (PEP 562), so a plan that HiGHS
solves never loads branch-and-bound or the LP writer.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ilp.expr": ("LinExpr", "LinExprBuilder", "VarType", "Variable"),
        "repro.ilp.model": ("Model",),
        "repro.ilp.solution": ("Solution", "SolveStatus"),
        "repro.ilp.solver": ("HighsOptions", "solve"),
        "repro.ilp.branch_bound": ("BranchAndBoundSolver",),
        "repro.ilp.faults": ("FaultSpec",),
        "repro.ilp.portfolio": ("PortfolioResult", "RungAttempt", "SolverPortfolio"),
        "repro.ilp.lpwriter": ("write_lp",),
    },
)
