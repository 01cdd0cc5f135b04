"""Unit tests for the HiGHS backend."""

import numpy as np
import pytest

from repro.ilp import LinExpr, Model, SolveStatus


class TestBasicSolves:
    def test_maximize_knapsack_corner(self):
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        y = m.add_integer_var("y", 0, 10)
        m.add_constr(x + y <= 7)
        m.set_objective(3 * x + 2 * y, sense="max")
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(21.0)
        assert sol.rounded(x) == 7 and sol.rounded(y) == 0

    def test_minimize_with_equality(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 10)
        y = m.add_continuous_var("y", 0, 10)
        m.add_constr(x + y == 4)
        m.set_objective(2 * x + y)
        sol = m.solve()
        assert sol.objective == pytest.approx(4.0)
        assert sol.value(x) == pytest.approx(0.0)

    def test_integrality_enforced(self):
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        m.add_constr(2 * x >= 5)  # LP optimum 2.5
        m.set_objective(x)
        sol = m.solve()
        assert sol.rounded(x) == 3

    def test_objective_constant_included(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 5)
        m.set_objective(x + 10)
        assert m.solve().objective == pytest.approx(10.0)

    def test_empty_model_solves_trivially(self):
        m = Model()
        m.objective = LinExpr({}, 42.0)
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(42.0)

    def test_unconstrained_model_uses_bounds(self):
        m = Model()
        x = m.add_continuous_var("x", 1, 2)
        m.set_objective(x, sense="max")
        assert m.solve().objective == pytest.approx(2.0)


class TestStatuses:
    def test_infeasible_detected(self):
        m = Model()
        b = m.add_binary_var("b")
        m.add_constr(LinExpr.from_any(b) >= 2)
        sol = m.solve()
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.status.has_solution

    def test_has_solution_property(self):
        assert SolveStatus.OPTIMAL.has_solution
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.UNBOUNDED.has_solution
        assert not SolveStatus.ERROR.has_solution


def _fake_highs_result(status, x, mip_gap=None, message="fake"):
    """A :class:`~repro.ilp.highs.HighsResult` as the binding might return it."""
    from repro.ilp.highs import HighsResult

    return HighsResult(status, message, x=x, mip_gap=mip_gap)


def _fake_loaded_problem(result, options_seen=None):
    """A stand-in for :class:`~repro.ilp.highs.LoadedProblem` whose solve
    returns ``result``; the option map it was built with goes into
    ``options_seen``."""

    class FakeLoadedProblem:
        def __init__(self, problem, col_lower, col_upper, options):
            if options_seen is not None:
                options_seen.update(options)

        def solve(self, col_lower, col_upper):
            return result

    return FakeLoadedProblem


class TestBrokenBackendResults:
    """Degenerate backend results must become ERROR, never silent repairs."""

    def _solve_with_fake(self, monkeypatch, result):
        import repro.ilp.solver as solver_mod

        monkeypatch.setattr(solver_mod, "LoadedProblem", _fake_loaded_problem(result))
        m = Model()
        m.add_integer_var("x", 0, 10)
        m.set_objective(LinExpr({}, 0.0))
        return m.solve()

    def test_fractional_integral_value_downgraded_to_error(self, monkeypatch):
        sol = self._solve_with_fake(
            monkeypatch, _fake_highs_result(status=0, x=np.array([0.49]))
        )
        assert sol.status is SolveStatus.ERROR
        assert "integrality violated" in sol.message
        assert sol.values == {}

    def test_rounding_noise_within_tolerance_accepted(self, monkeypatch):
        sol = self._solve_with_fake(
            monkeypatch, _fake_highs_result(status=0, x=np.array([2.9999999995]))
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert list(sol.values.values()) == [3.0]

    def test_limit_without_incumbent_is_error(self, monkeypatch):
        # HiGHS reports status 1 (limit) but delivers no point at all.
        sol = self._solve_with_fake(monkeypatch, _fake_highs_result(status=1, x=None))
        assert sol.status is SolveStatus.ERROR
        assert not sol.status.has_solution


class TestSolutionObject:
    def test_value_evaluates_expressions(self):
        m = Model()
        x = m.add_integer_var("x", 3, 3)
        y = m.add_integer_var("y", 4, 4)
        m.set_objective(x + y)
        sol = m.solve()
        assert sol.value(2 * x - y + 1) == pytest.approx(3.0)
        assert sol[x] == pytest.approx(3.0)

    def test_as_name_map(self):
        m = Model()
        m.add_integer_var("alpha", 1, 1)
        sol = m.solve()
        assert sol.as_name_map() == {"alpha": 1.0}

    def test_integral_values_rounded(self):
        m = Model()
        x = m.add_integer_var("x", 0, 9)
        m.add_constr(3 * x >= 8)
        m.set_objective(x)
        sol = m.solve()
        assert sol.values[x] == 3.0  # exactly, not 2.9999...

    def test_solve_time_recorded(self):
        m = Model()
        x = m.add_integer_var("x", 0, 1)
        m.set_objective(x)
        assert m.solve().solve_time_s >= 0.0


class TestOptionOverrideMerge:
    """Caller-supplied scalar overrides must merge into ``options``.

    Regression: ``solve(model, mip_gap=..., options=...)`` silently
    dropped the gap whenever ``options`` was also passed and the time
    limits happened to agree — the overrides must merge symmetrically.
    """

    def _captured_options(self, monkeypatch, **solve_kwargs):
        import repro.ilp.solver as solver_mod

        captured = {}  # the HiGHS option map
        monkeypatch.setattr(
            solver_mod,
            "LoadedProblem",
            _fake_loaded_problem(_fake_highs_result(status=0, x=np.array([0.0])), captured),
        )
        m = Model()
        m.add_integer_var("x", 0, 10)
        m.set_objective(LinExpr({}, 0.0))
        solver_mod.solve(m, **solve_kwargs)
        return captured

    def test_mip_gap_forwarded_alongside_options(self, monkeypatch):
        from repro.ilp.solver import HighsOptions

        opts = self._captured_options(
            monkeypatch,
            mip_gap=0.125,
            options=HighsOptions(time_limit_s=None, mip_gap=None),
        )
        assert opts["mip_rel_gap"] == pytest.approx(0.125)

    def test_time_limit_forwarded_alongside_options(self, monkeypatch):
        from repro.ilp.solver import HighsOptions

        opts = self._captured_options(
            monkeypatch,
            time_limit_s=7.0,
            options=HighsOptions(mip_gap=0.01),
        )
        assert opts["time_limit"] == pytest.approx(7.0)
        assert opts["mip_rel_gap"] == pytest.approx(0.01)

    def test_options_fields_win_when_no_override_given(self, monkeypatch):
        from repro.ilp.solver import HighsOptions

        opts = self._captured_options(
            monkeypatch,
            options=HighsOptions(time_limit_s=3.0, mip_gap=0.05, presolve=False),
        )
        assert opts["time_limit"] == pytest.approx(3.0)
        assert opts["mip_rel_gap"] == pytest.approx(0.05)
        assert opts["presolve"] == "off"


class TestSolverInputIsFreedBeforeTheSolve:
    """HiGHS holds its own copy of the model once it has read it, so the
    :class:`~repro.ilp.highs.Problem` arrays must be gone before HiGHS
    runs, not resident under its peak."""

    def test_the_column_matrix_is_dead_when_highs_runs(self, monkeypatch):
        import weakref

        import repro.ilp.highs as highs_mod
        import repro.ilp.solver as solver_mod

        index_refs, alive_at_solve = [], []
        column_wise, solve = solver_mod.column_wise, highs_mod.LoadedProblem.solve

        def watched_column_wise(*args):
            matrix = column_wise(*args)
            index_refs.append(weakref.ref(matrix.index))
            return matrix

        def spy(self, col_lower, col_upper):
            alive_at_solve.append(index_refs[-1]() is not None)
            return solve(self, col_lower, col_upper)

        monkeypatch.setattr(solver_mod, "column_wise", watched_column_wise)
        monkeypatch.setattr(highs_mod.LoadedProblem, "solve", spy)
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        y = m.add_integer_var("y", 0, 10)
        m.add_constr(x + 2 * y >= 7)
        m.add_constr(x - y <= 2)
        m.set_objective(x + y)
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(4.0)
        assert alive_at_solve == [False]
