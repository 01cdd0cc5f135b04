"""Property tests: the two MILP backends agree on random small models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import BranchAndBoundSolver, LinExpr, Model, SolveStatus

small_int = st.integers(min_value=-5, max_value=5)


@st.composite
def random_milp(draw):
    """A small random MILP with bounded integer variables."""
    n_vars = draw(st.integers(min_value=1, max_value=4))
    n_cons = draw(st.integers(min_value=1, max_value=5))
    m = Model("rand", big_m=1000)
    vs = []
    for i in range(n_vars):
        kind = draw(st.sampled_from(["int", "bin", "cont"]))
        if kind == "bin":
            vs.append(m.add_binary_var(f"v{i}"))
        elif kind == "int":
            vs.append(m.add_integer_var(f"v{i}", 0, 8))
        else:
            vs.append(m.add_continuous_var(f"v{i}", 0, 8))
    for _ in range(n_cons):
        coefs = [draw(small_int) for _ in vs]
        rhs = draw(st.integers(min_value=0, max_value=30))
        expr = LinExpr.sum(c * v for c, v in zip(coefs, vs))
        sense = draw(st.sampled_from(["<=", ">="]))
        m.add_constr(expr <= rhs if sense == "<=" else expr >= -rhs)
    obj = LinExpr.sum(draw(small_int) * v for v in vs)
    m.set_objective(obj, sense=draw(st.sampled_from(["min", "max"])))
    return m


@given(random_milp())
@settings(max_examples=40, deadline=None)
def test_highs_and_branch_bound_agree(model):
    highs = model.solve(time_limit_s=10)
    bb = BranchAndBoundSolver(time_limit_s=20)(model)
    assert (highs.status is SolveStatus.INFEASIBLE) == (
        bb.status is SolveStatus.INFEASIBLE
    )
    if highs.status is SolveStatus.OPTIMAL and bb.status is SolveStatus.OPTIMAL:
        assert highs.objective == pytest.approx(bb.objective, abs=1e-5)


@given(random_milp())
@settings(max_examples=40, deadline=None)
def test_solutions_satisfy_all_constraints(model):
    sol = model.solve(time_limit_s=10)
    if sol.status.has_solution:
        assert model.check_solution(sol) == []
        for var in model.variables:
            value = sol.values[var]
            assert var.lb - 1e-6 <= value <= var.ub + 1e-6
            if var.is_integral:
                assert value == int(value)
