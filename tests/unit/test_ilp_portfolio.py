"""Unit tests for the solver degradation ladder and fault injection."""

import time

import pytest

from repro.errors import LadderExhausted, SolverError
from repro.ilp import LinExpr, Model, Solution, SolverPortfolio, SolveStatus
from repro.ilp import faults


def knapsack_model() -> Model:
    m = Model()
    x = m.add_integer_var("x", 0, 10)
    y = m.add_integer_var("y", 0, 10)
    m.add_constr(x + y <= 7)
    m.set_objective(3 * x + 2 * y, sense="max")
    return m


def infeasible_model() -> Model:
    m = Model()
    b = m.add_binary_var("b")
    m.add_constr(LinExpr.from_any(b) >= 2)
    m.set_objective(LinExpr.from_any(b))
    return m


class TestCleanLadder:
    def test_primary_rung_wins(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "highs"
        assert result.solution.status is SolveStatus.OPTIMAL
        assert result.solution.objective == pytest.approx(21.0)
        assert len(result.attempts) == 1
        assert result.attempts[0].succeeded
        assert result.attempts[0].wall_s >= 0.0

    def test_infeasible_stops_ladder_immediately(self):
        result = SolverPortfolio(time_limit_s=30.0).solve(infeasible_model())
        assert result.solution.status is SolveStatus.INFEASIBLE
        # A proven-infeasible model must not be retried on lower rungs.
        assert len(result.attempts) == 1

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(SolverError):
            SolverPortfolio(time_limit_s=0.0)

    def test_unknown_force_rejected(self):
        with pytest.raises(SolverError):
            SolverPortfolio(force="simplex-by-hand")


class _SlowRungPortfolio(SolverPortfolio):
    """Every rung ignores its budget, overruns, and fails.

    Models HiGHS's soft time limit: the regression guarded here is the
    ladder handing every later rung the ``min_rung_budget_s`` floor even
    after the *global* deadline had already been blown.
    """

    def __init__(self, overrun_s: float, **kwargs):
        super().__init__(**kwargs)
        self.overrun_s = overrun_s
        self.granted: list = []

    def _overrun(self, budget_s: float) -> Solution:
        self.granted.append(budget_s)
        time.sleep(self.overrun_s)
        return Solution(SolveStatus.ERROR, message="still grinding")

    def _run_highs(self, model, budget_s):
        return self._overrun(budget_s)

    def _run_highs_relaxed(self, model, budget_s):
        return self._overrun(budget_s)

    def _run_branch_bound(self, model, budget_s):
        return self._overrun(budget_s)


class TestBudgetClamp:
    """The portfolio's global deadline is a ceiling, not a suggestion."""

    def test_slice_zero_once_deadline_passed(self):
        pf = SolverPortfolio(time_limit_s=5.0)
        assert pf._slice("highs", time.perf_counter() - 1.0) == 0.0
        assert pf._slice("branch_bound", time.perf_counter() - 1.0) == 0.0

    def test_slice_floor_clamped_to_remaining(self):
        # Pre-fix, the min_rung_budget_s floor *extended* the deadline:
        # with 0.4s left a rung was still granted the full 1.0s floor.
        pf = SolverPortfolio(time_limit_s=5.0, min_rung_budget_s=1.0)
        budget = pf._slice("branch_bound", time.perf_counter() + 0.4)
        assert 0.0 < budget <= 0.4 + 1e-3

    def test_overrunning_rungs_cannot_leak_past_the_budget(self):
        # 2s global budget, every rung overruns its slice by sleeping
        # 1.2s: the ladder must stop once the deadline is exhausted
        # instead of walking all three rungs at the floor (~2x budget
        # total wall, never the leaky 3.6s+).
        pf = _SlowRungPortfolio(
            overrun_s=1.2, time_limit_s=2.0, min_rung_budget_s=1.0
        )
        started = time.perf_counter()
        with pytest.raises(LadderExhausted) as exc_info:
            pf.solve(knapsack_model())
        wall = time.perf_counter() - started
        assert wall <= 2.0 * 2.0
        assert len(exc_info.value.attempts) <= 2
        # Every granted slice respected the remaining global budget.
        deadline_total = sum(pf.granted)
        assert deadline_total <= 2.0 + 1e-3

    def test_first_rung_always_granted_the_floor(self):
        # A microscopic budget must still produce one genuine attempt.
        pf = _SlowRungPortfolio(
            overrun_s=0.0, time_limit_s=1e-9, min_rung_budget_s=1.0
        )
        with pytest.raises(LadderExhausted):
            pf.solve(knapsack_model())
        assert pf.granted[0] == pytest.approx(1.0)


class TestFaultInjection:
    def test_crash_falls_through_to_branch_bound(self, solver_fault):
        solver_fault("crash")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "branch_bound"
        assert result.solution.objective == pytest.approx(21.0)
        assert [a.rung for a in result.attempts] == [
            "highs", "highs-relaxed", "branch_bound",
        ]
        assert result.attempts[0].status == SolveStatus.ERROR.value
        assert "injected crash" in result.attempts[0].message

    def test_timeout_falls_through_to_branch_bound(self, solver_fault):
        solver_fault("timeout")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "branch_bound"
        assert result.solution.status is SolveStatus.OPTIMAL
        assert "time limit" in result.attempts[0].message

    def test_no_incumbent_falls_through(self, solver_fault):
        solver_fault("no_incumbent")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "branch_bound"

    def test_flaky_certain_failure(self, solver_fault):
        solver_fault("flaky:1.0")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "branch_bound"

    def test_flaky_never_fires_at_zero(self, solver_fault):
        solver_fault("flaky:0.0")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "highs"

    def test_flaky_stream_is_deterministic(self, solver_fault):
        solver_fault("flaky:0.5", seed="42")
        first = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model()).rung
        faults.reset()
        second = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model()).rung
        assert first == second


class TestForcedRungs:
    def test_force_branch_bound_single_attempt(self):
        result = SolverPortfolio(time_limit_s=30.0, force="branch_bound").solve(
            knapsack_model()
        )
        assert result.rung == "branch_bound"
        assert [a.rung for a in result.attempts] == ["branch_bound"]
        assert result.solution.objective == pytest.approx(21.0)

    def test_force_greedy_exhausts_the_ladder(self):
        with pytest.raises(LadderExhausted) as exc_info:
            SolverPortfolio(time_limit_s=30.0, force="greedy").solve(knapsack_model())
        assert exc_info.value.attempts == ()

    def test_force_env_variable(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FORCE, "branch_bound")
        result = SolverPortfolio(time_limit_s=30.0).solve(knapsack_model())
        assert result.rung == "branch_bound"

    def test_from_config_respects_solver_field(self, monkeypatch):
        from repro.core import PDWConfig

        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        pf = SolverPortfolio.from_config(
            PDWConfig(time_limit_s=30.0, solver="branch_bound")
        )
        assert pf.force == "branch_bound"
        auto = SolverPortfolio.from_config(PDWConfig(time_limit_s=30.0))
        assert auto.force is None


class TestFaultSpecParsing:
    def test_plain_kinds(self):
        for kind in ("timeout", "crash", "no_incumbent"):
            spec = faults.FaultSpec.parse(kind)
            assert spec.kind == kind and spec.probability == 1.0

    def test_flaky_with_probability(self):
        spec = faults.FaultSpec.parse("flaky:0.25")
        assert spec.kind == "flaky"
        assert spec.probability == pytest.approx(0.25)

    def test_bare_flaky_defaults_to_certain(self):
        assert faults.FaultSpec.parse("flaky").probability == 1.0

    def test_junk_rejected(self):
        with pytest.raises(SolverError):
            faults.FaultSpec.parse("segfault")

    def test_bad_probability_rejected(self):
        with pytest.raises(SolverError):
            faults.FaultSpec.parse("flaky:lots")
        with pytest.raises(SolverError):
            faults.FaultSpec.parse("flaky:1.5")


class TestEnvironmentToken:
    def test_clean_environment_is_empty(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FAULT, raising=False)
        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        assert faults.environment_token() == ""

    def test_token_covers_both_variables(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        monkeypatch.setenv(faults.ENV_FAULT, "crash")
        tok_fault = faults.environment_token()
        monkeypatch.setenv(faults.ENV_FORCE, "branch_bound")
        tok_both = faults.environment_token()
        assert tok_fault and tok_both and tok_fault != tok_both
