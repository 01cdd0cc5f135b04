"""Budgeted degradation ladder over the ILP backends.

The paper's results are best-effort solves under a global 15-minute cap;
this module makes a single solve equally best-effort at the backend level.
A :class:`SolverPortfolio` runs the ladder

1. ``highs`` — the primary HiGHS backend with a slice of the budget,
2. ``highs-relaxed`` — one retry with a relaxed MIP gap and presolve
   disabled (the cheap knobs that rescue numerically unhappy models),
3. ``branch_bound`` — the pure-Python
   :class:`~repro.ilp.branch_bound.BranchAndBoundSolver` on the remaining
   budget,

stopping at the first rung that produces a usable incumbent.  A *proven*
``INFEASIBLE``/``UNBOUNDED`` outcome stops the ladder immediately — lower
rungs cannot fix a broken model, only a broken backend.  When every rung
fails, :class:`~repro.errors.LadderExhausted` carries the per-rung
:class:`RungAttempt` records so the caller (the PDW scheduling stage) can
fall back to greedy plan assembly and still report what was tried.

Fault injection (:mod:`repro.ilp.faults`) hooks the HiGHS rungs, making
every path through the ladder deterministically testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LadderExhausted, SolverError
from repro.ilp import faults
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.solver import HighsOptions, solve as highs_solve


@dataclass(frozen=True)
class RungAttempt:
    """Structured record of one ladder rung attempt.

    Plain data (strings and floats) so it pickles into the artifact cache
    and flattens into :class:`~repro.pipeline.RunReport` counters.
    """

    rung: str
    status: str
    wall_s: float
    mip_gap: Optional[float] = None
    objective: Optional[float] = None
    message: str = ""

    @property
    def succeeded(self) -> bool:
        """Whether this attempt produced a usable incumbent."""
        return self.status in (SolveStatus.OPTIMAL.value, SolveStatus.FEASIBLE.value)


@dataclass
class PortfolioResult:
    """The winning solution plus the full attempt history."""

    solution: Solution
    rung: str
    attempts: Tuple[RungAttempt, ...] = ()


def _publish_attempt(attempt: RungAttempt) -> None:
    """Emit one ladder-rung attempt into the central metrics registry."""
    reg = obs_metrics.registry()
    reg.counter(
        "pdw_solver_rung_attempts_total", rung=attempt.rung, status=attempt.status
    ).inc()
    reg.histogram("pdw_solver_rung_wall_seconds", rung=attempt.rung).observe(
        attempt.wall_s
    )


class SolverPortfolio:
    """Run the degradation ladder against one model under a time budget.

    Parameters
    ----------
    time_limit_s:
        Global wall-clock budget shared by all rungs.  The first HiGHS
        attempt gets :data:`PRIMARY_SHARE` of it, the relaxed retry half
        of the remainder, branch-and-bound everything left.  Each rung's
        share is floored at ``min_rung_budget_s`` but clamped to the time
        actually remaining on the global deadline; once the deadline is
        exhausted the ladder stops (the first rung is always granted the
        floor, so a tiny budget still gets one genuine attempt).
    mip_gap:
        Relative gap for the primary rung; the retry relaxes it.
    force:
        Pin the ladder to one rung (``highs`` | ``branch_bound`` |
        ``greedy``).  ``None`` consults ``REPRO_FORCE_SOLVER``; ``greedy``
        skips every backend and raises :class:`LadderExhausted` so the
        caller's last-resort assembly takes over.
    incumbent:
        Optional warm-start solution (from an earlier structurally
        identical solve).  The HiGHS MILP call passes HiGHS no
        starting point, so healthy primary-rung outputs stay
        byte-identical; the branch-and-bound rung is primed with it to
        prune from the first node.
    """

    #: Fraction of the budget granted to the primary HiGHS attempt.
    PRIMARY_SHARE = 0.5
    #: Relaxed-gap floor used by the retry rung.
    RELAXED_GAP = 0.05

    def __init__(
        self,
        time_limit_s: float = 60.0,
        mip_gap: Optional[float] = None,
        force: Optional[str] = None,
        bb_max_nodes: int = 200_000,
        min_rung_budget_s: float = 1.0,
        incumbent: Optional[Solution] = None,
    ):
        if time_limit_s <= 0:
            raise SolverError("portfolio time budget must be positive")
        self.time_limit_s = float(time_limit_s)
        self.mip_gap = mip_gap
        self.force = force if force is not None else faults.forced_solver()
        if self.force is not None and self.force not in faults.FORCE_CHOICES:
            raise SolverError(
                f"unknown forced solver {self.force!r}; expected one of "
                f"{faults.FORCE_CHOICES}"
            )
        self.bb_max_nodes = bb_max_nodes
        self.min_rung_budget_s = min_rung_budget_s
        self.incumbent = incumbent

    @classmethod
    def from_config(cls, config, incumbent: Optional[Solution] = None) -> "SolverPortfolio":
        """Build a portfolio from a :class:`~repro.core.config.PDWConfig`."""
        solver = getattr(config, "solver", "auto")
        return cls(
            time_limit_s=config.time_limit_s,
            mip_gap=config.mip_gap,
            force=None if solver == "auto" else solver,
            incumbent=incumbent,
        )

    # -- ladder ------------------------------------------------------------------

    def _rungs(self) -> Sequence[Tuple[str, Callable[[Model, float], Solution]]]:
        highs = ("highs", self._run_highs)
        relaxed = ("highs-relaxed", self._run_highs_relaxed)
        branch = ("branch_bound", self._run_branch_bound)
        if self.force == "highs":
            return (highs, relaxed)
        if self.force == "branch_bound":
            return (branch,)
        if self.force == "greedy":
            return ()
        return (highs, relaxed, branch)

    def _run_highs(self, model: Model, budget_s: float) -> Solution:
        opts = HighsOptions(time_limit_s=budget_s, mip_gap=self.mip_gap)
        return highs_solve(model, options=opts)

    def _run_highs_relaxed(self, model: Model, budget_s: float) -> Solution:
        gap = max(self.RELAXED_GAP, 5.0 * (self.mip_gap or 0.01))
        opts = HighsOptions(time_limit_s=budget_s, mip_gap=gap, presolve=False)
        return highs_solve(model, options=opts)

    def _run_branch_bound(self, model: Model, budget_s: float) -> Solution:
        from repro.ilp.branch_bound import BranchAndBoundSolver

        solver = BranchAndBoundSolver(
            time_limit_s=budget_s, max_nodes=self.bb_max_nodes
        )
        return solver.solve(model, incumbent=self.incumbent)

    def _slice(self, rung: str, deadline: float) -> float:
        """Wall-clock slice granted to one rung.

        Shares are floored at ``min_rung_budget_s`` so late rungs get a
        real shot, but never above the time actually left on the global
        deadline — a rung that overran its slice (HiGHS's time limit is
        soft) eats into the followers instead of extending the budget.
        Returns ``0.0`` once the deadline has passed.
        """
        remaining = deadline - time.perf_counter()
        if remaining <= 0.0:
            return 0.0
        share = remaining
        if rung == "highs":
            share *= self.PRIMARY_SHARE
        elif rung == "highs-relaxed":
            share *= 0.5
        return min(remaining, max(self.min_rung_budget_s, share))

    def solve(self, model: Model) -> PortfolioResult:
        """Walk the ladder until a rung yields a usable solution.

        Raises :class:`LadderExhausted` (carrying the attempt records)
        when no rung produces a usable solution.
        """
        deadline = time.perf_counter() + self.time_limit_s
        attempts: List[RungAttempt] = []
        for rung, runner in self._rungs():
            started = time.perf_counter()
            budget = self._slice(rung, deadline)
            if budget <= 0.0:
                # Deadline exhausted (an earlier rung overran its soft
                # limit).  The first rung is always granted the floor so
                # a tiny budget still produces one genuine attempt.
                if attempts:
                    break
                budget = self.min_rung_budget_s
            with span(f"ilp.rung.{rung}", budget_s=round(budget, 3)) as sp:
                try:
                    solution = faults.maybe_inject(rung)
                    if solution is None:
                        solution = runner(model, budget)
                except SolverError as exc:
                    attempt = RungAttempt(
                        rung=rung,
                        status=SolveStatus.ERROR.value,
                        wall_s=time.perf_counter() - started,
                        message=str(exc),
                    )
                    attempts.append(attempt)
                    sp.set("status", attempt.status)
                    _publish_attempt(attempt)
                    continue
                attempt = RungAttempt(
                    rung=rung,
                    status=solution.status.value,
                    wall_s=time.perf_counter() - started,
                    mip_gap=solution.mip_gap,
                    objective=solution.objective,
                    message=solution.message,
                )
                attempts.append(attempt)
                sp.set("status", attempt.status)
                _publish_attempt(attempt)
            if solution.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
                # Proven: lower rungs cannot change a broken model.
                return PortfolioResult(solution, rung, tuple(attempts))
            if solution.status.has_solution:
                return PortfolioResult(solution, rung, tuple(attempts))
        raise LadderExhausted(
            "every solver rung failed"
            if attempts
            else "solver ladder empty (forced to greedy)",
            attempts=attempts,
        )
