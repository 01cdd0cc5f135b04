"""HiGHS backend: solve a :class:`~repro.ilp.model.Model` exactly.

The HiGHS mixed-integer solver plays the role Gurobi plays in the paper.
The adapter below hands it our model through :func:`repro.ilp.highs.run`
as the problem ``scipy.optimize.milp`` gave it (column-wise matrix, the
same bounds, integer columns and options), maps statuses back, and honours
a wall-clock time limit so runs stay within the paper's 15-minute
best-effort budget.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, replace

from repro.errors import SolverError
from repro.ilp.highs import Problem, column_wise, run as run_highs
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus

#: Largest deviation from an integer an "integral" incumbent may show.
#: HiGHS's own MIP feasibility tolerance is 1e-6; anything beyond it is a
#: numerically broken incumbent, not rounding noise.
_INT_TOL = 1e-6

#: Map from SciPy's status codes (:attr:`repro.ilp.highs.HighsResult.status`)
#: to ours.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,   # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


@dataclass(frozen=True)
class HighsOptions:
    """Solver options forwarded to HiGHS."""

    time_limit_s: float | None = None
    mip_gap: float | None = None
    presolve: bool = True
    node_limit: int | None = None


def _milp_arrays(model: Model):
    """The model as the leading arguments of :func:`repro.ilp.highs.run`:
    the :class:`~repro.ilp.highs.Problem` and the column bounds
    ``scipy.optimize.milp`` passed on."""
    n = len(model.variables)
    c = array("d", [0.0]) * n
    for var, coef in model.objective.terms.items():
        c[var.index] += coef
    if model.objective_sense == "max":
        c = array("d", [-coef for coef in c])

    integer_columns = array("q", [v.index for v in model.variables if v.is_integral])
    lower = array("d", [v.lb for v in model.variables])
    upper = array("d", [v.ub for v in model.variables])

    rows = model.row_matrix()
    a = column_wise(rows.indptr, rows.indices, rows.data, n)
    return Problem(c, a, rows.lo, rows.hi, integer_columns), lower, upper


def _highs_options(opts: HighsOptions) -> dict:
    """The HiGHS option map ``milp`` built from the same settings."""
    out: dict = {"log_to_console": False}
    if opts.node_limit is not None:
        out["mip_max_nodes"] = int(opts.node_limit)
    if opts.time_limit_s is not None:
        out["time_limit"] = float(opts.time_limit_s)
    if opts.mip_gap is not None:
        out["mip_rel_gap"] = float(opts.mip_gap)
    if not opts.presolve:
        out["presolve"] = "off"
    return out


def solve(
    model: Model,
    time_limit_s: float | None = None,
    mip_gap: float | None = None,
    options: HighsOptions | None = None,
) -> Solution:
    """Solve ``model`` with HiGHS and return a :class:`Solution`.

    An empty model (no variables) solves trivially to its constant
    objective.  Statuses map directly: HiGHS "time limit with incumbent"
    becomes :attr:`SolveStatus.FEASIBLE`, matching the paper's best-effort
    runs.
    """
    # Caller-supplied scalar overrides win over the corresponding fields
    # of ``options``, symmetrically — a ``mip_gap`` override must not be
    # dropped just because the time limits happened to agree.
    opts = options or HighsOptions(time_limit_s=time_limit_s, mip_gap=mip_gap)
    overrides = {}
    if time_limit_s is not None and opts.time_limit_s != time_limit_s:
        overrides["time_limit_s"] = time_limit_s
    if mip_gap is not None and opts.mip_gap != mip_gap:
        overrides["mip_gap"] = mip_gap
    if overrides:
        opts = replace(opts, **overrides)

    if not model.variables:
        obj = model.objective.constant
        return Solution(SolveStatus.OPTIMAL, objective=obj, values={}, message="empty model")

    problem, lower, upper = _milp_arrays(model)
    if not all(map(math.isfinite, problem.c)):
        raise SolverError("HiGHS backend failed: objective coefficients must be finite")

    started = time.perf_counter()
    try:
        result = run_highs(problem, lower, upper, _highs_options(opts))
    except Exception as exc:  # pragma: no cover - backend failure
        raise SolverError(f"HiGHS backend failed: {exc}") from exc
    elapsed = time.perf_counter() - started

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    if status.has_solution and result.x is None:
        # HiGHS hit a limit without an incumbent.
        status = SolveStatus.ERROR

    values = {}
    objective = None
    gap = result.mip_gap
    bound = result.mip_dual_bound  # on the constant-free objective, negated when maximizing
    if bound is not None:
        bound = model.objective.constant + (-bound if model.objective_sense == "max" else bound)
    if status.has_solution:
        for var in model.variables:
            raw = float(result.x[var.index])
            if var.is_integral:
                if abs(raw - round(raw)) > _INT_TOL:
                    # A fractional "integral" incumbent must not be silently
                    # repaired by rounding: the rounded point may violate
                    # constraints the solver never checked it against.
                    return Solution(
                        status=SolveStatus.ERROR,
                        solve_time_s=elapsed,
                        message=(
                            f"integrality violated: {var.name}={raw!r} is "
                            f"{abs(raw - round(raw)):.3e} from an integer "
                            f"(tolerance {_INT_TOL:g})"
                        ),
                    )
                values[var] = float(round(raw))
            else:
                values[var] = raw
        objective = model.objective.constant + sum(
            coef * values[var] for var, coef in model.objective.terms.items()
        )

    return Solution(
        status=status,
        objective=objective,
        values=values,
        solve_time_s=elapsed,
        mip_gap=float(gap) if gap is not None else None,
        mip_dual_bound=bound,
        message=result.message,
    )
