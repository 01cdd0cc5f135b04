"""Unit tests for the pure-Python branch-and-bound fallback solver."""

import pytest

from repro.ilp import BranchAndBoundSolver, LinExpr, Model, SolveStatus


@pytest.fixture
def solver():
    return BranchAndBoundSolver(time_limit_s=20.0)


class TestBranchAndBound:
    def test_matches_highs_on_knapsack(self, solver):
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        y = m.add_integer_var("y", 0, 10)
        m.add_constr(x + y <= 7)
        m.add_constr(2 * x - y >= -2)
        m.set_objective(3 * x + 2 * y, sense="max")
        highs = m.solve()
        bb = solver(m)
        assert bb.status is SolveStatus.OPTIMAL
        assert bb.objective == pytest.approx(highs.objective)

    def test_pure_lp_no_branching(self, solver):
        m = Model()
        x = m.add_continuous_var("x", 0, 4)
        m.add_constr(2 * x >= 3)
        m.set_objective(x)
        sol = solver(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.5)

    def test_fractional_lp_relaxation_gets_branched(self, solver):
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        m.add_constr(2 * x >= 5)
        m.set_objective(x)
        sol = solver(m)
        assert sol.objective == pytest.approx(3.0)

    def test_infeasible(self, solver):
        m = Model()
        x = m.add_integer_var("x", 0, 1)
        m.add_constr(LinExpr.from_any(x) >= 2)
        assert solver(m).status is SolveStatus.INFEASIBLE

    def test_binary_logic_model(self, solver):
        m = Model()
        bs = [m.add_binary_var(f"b{i}") for i in range(4)]
        m.add_constr(LinExpr.sum(bs) == 2)
        m.add_constr(bs[0] + bs[1] <= 1)
        m.set_objective(bs[0] * 4 + bs[1] * 3 + bs[2] * 2 + bs[3] * 1, sense="max")
        sol = solver(m)
        assert sol.objective == pytest.approx(6.0)  # b0 + b2

    def test_empty_model(self, solver):
        m = Model()
        m.objective = LinExpr({}, 7.0)
        sol = solver(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)

    def test_equality_constraints(self, solver):
        m = Model()
        x = m.add_integer_var("x", 0, 20)
        y = m.add_integer_var("y", 0, 20)
        m.add_constr(x + 2 * y == 11)
        m.set_objective(x + y)
        sol = solver(m)
        assert sol.objective == pytest.approx(6.0)  # x=1, y=5

    def test_node_limit_is_respected(self):
        tight = BranchAndBoundSolver(time_limit_s=20.0, max_nodes=1)
        m = Model()
        x = m.add_integer_var("x", 0, 100)
        y = m.add_integer_var("y", 0, 100)
        m.add_constr(3 * x + 7 * y <= 50)
        m.set_objective(x + y, sense="max")
        sol = tight.solve(m)
        # With one node it cannot prove optimality.
        assert sol.status is not SolveStatus.OPTIMAL


class TestBestEffortStatuses:
    def _fractional_binary_model(self) -> Model:
        m = Model()
        x = m.add_binary_var("x")
        y = m.add_binary_var("y")
        m.add_constr(2 * x + 2 * y <= 3)  # LP optimum x + y = 1.5
        m.set_objective(x + y, sense="max")
        return m

    def test_incumbent_on_node_limit_is_feasible(self):
        # Two nodes: the fractional root, then one integral child — an
        # incumbent exists but open nodes remain, so the result is a
        # best-effort FEASIBLE, not OPTIMAL and not an error.
        tight = BranchAndBoundSolver(time_limit_s=20.0, max_nodes=2)
        sol = tight.solve(self._fractional_binary_model())
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.status.has_solution
        assert sol.objective == pytest.approx(1.0)

    def test_node_limit_reports_gap_from_heap_bound(self):
        # On a limit-hit FEASIBLE the open heap's smallest relaxation
        # bound is the honest lower bound: here the incumbent is 1.0 but
        # the open node still admits the LP value 1.5 (max-sense, so the
        # internal minimization bound is -1.5), giving a 50% gap.
        tight = BranchAndBoundSolver(time_limit_s=20.0, max_nodes=2)
        sol = tight.solve(self._fractional_binary_model())
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.mip_gap == pytest.approx(0.5)

    def test_node_limit_reports_the_heap_bound_as_dual_bound(self):
        # The same open node, mapped back to the model's max sense: no
        # solution can beat 1.5, although the incumbent is 1.0.
        m = self._fractional_binary_model()
        m.objective = m.objective + 2.0
        sol = BranchAndBoundSolver(time_limit_s=20.0, max_nodes=2).solve(m)
        assert sol.objective == pytest.approx(3.0)
        assert sol.mip_dual_bound == pytest.approx(3.5)

    def test_optimal_solve_has_no_gap(self):
        sol = BranchAndBoundSolver(time_limit_s=20.0).solve(
            self._fractional_binary_model()
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.mip_gap is None
        assert sol.mip_dual_bound == pytest.approx(sol.objective)

    def test_timeout_without_incumbent_is_error(self):
        expired = BranchAndBoundSolver(time_limit_s=0.0)
        sol = expired.solve(self._fractional_binary_model())
        assert sol.status is SolveStatus.ERROR
        assert not sol.status.has_solution
        assert "no incumbent" in sol.message
