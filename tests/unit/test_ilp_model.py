"""Unit tests for Model construction and the big-M helper patterns."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ilp import LinExpr, Model, SolveStatus


class TestModelConstruction:
    def test_rejects_nonpositive_big_m(self):
        with pytest.raises(ModelError):
            Model(big_m=0)

    def test_add_constr_rejects_plain_bool(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_constr(True)  # type: ignore[arg-type]

    def test_add_constr_rejects_foreign_variable(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_continuous_var("x")
        with pytest.raises(ModelError):
            m2.add_constr(x >= 0)

    def test_objective_sense_validation(self):
        m = Model()
        x = m.add_continuous_var("x")
        with pytest.raises(ModelError):
            m.set_objective(x, sense="sideways")

    def test_stats_counts(self):
        m = Model("s")
        m.add_binary_var("b")
        m.add_continuous_var("c")
        m.add_constr(m.variables[0] + m.variables[1] <= 1)
        assert "2 vars" in m.stats()
        assert "1 bin" in m.stats()
        assert "1 constrs" in m.stats()

    def test_add_constrs_prefix_names(self):
        m = Model()
        x = m.add_continuous_var("x")
        rows = m.add_constrs([x >= 0, x <= 5], prefix="p")
        assert rows == [0, 1]
        assert m.row_names == ["p_0", "p_1"]
        assert m.num_rows == 2


def dense_rows(model):
    """The constraint matrix of ``model`` as a dense array."""
    rows = model.row_matrix()
    a = np.zeros((model.num_rows, len(model.variables)))
    row_ids = np.repeat(np.arange(model.num_rows), np.diff(rows.indptr))
    a[row_ids, rows.indices] = rows.data
    return a


def _matrices(model):
    """Dense (c, integrality, lb, ub, A, lo, hi) of a model."""
    c = np.zeros(len(model.variables))
    for var, coef in model.objective.terms.items():
        c[var.index] += coef
    rows = model.row_matrix()
    return (
        c,
        np.array([v.is_integral for v in model.variables]),
        np.array([v.lb for v in model.variables]),
        np.array([v.ub for v in model.variables]),
        dense_rows(model),
        rows.lo,
        rows.hi,
    )


def assert_same_matrices(m1, m2):
    for left, right in zip(_matrices(m1), _matrices(m2)):
        np.testing.assert_array_equal(left, right)


def row_terms(model, row):
    """``{variable name: coefficient}`` of one CSR row."""
    a = model.row_matrix()
    span = slice(a.indptr[row], a.indptr[row + 1])
    return {
        model.variables[col].name: coef
        for col, coef in zip(a.indices[span].tolist(), a.data[span].tolist())
    }


class TestAddLinearConstraint:
    def _twin_models(self):
        ms = []
        for name in ("op", "batch"):
            m = Model(name)
            x = m.add_continuous_var("x", 0, 10)
            y = m.add_integer_var("y", 0, 5)
            z = m.add_binary_var("z")
            m.set_objective(x + 2 * y + 3 * z)
            ms.append((m, x, y, z))
        return ms

    def test_matches_operator_constraints_exactly(self):
        (m_op, x1, y1, z1), (m_b, x2, y2, z2) = self._twin_models()
        m_op.add_constr(x1 + 2 * y1 <= 5, "c0")
        m_op.add_constr(3 * x1 - y1 + z1 >= -2, "c1")
        m_op.add_constr(LinExpr.from_any(z1) == 1, "c2")
        m_b.add_linear_constraint([(x2, 1.0), (y2, 2.0)], "<=", 5, "c0")
        m_b.add_linear_constraint([(x2, 3.0), (y2, -1.0), (z2, 1.0)], ">=", -2, "c1")
        m_b.add_linear_constraint([(z2, 1.0)], "==", 1, "c2")
        assert_same_matrices(m_op, m_b)
        op, batch = m_op.row_matrix(), m_b.row_matrix()
        np.testing.assert_array_equal(op.sense, batch.sense)
        np.testing.assert_array_equal(op.rhs, batch.rhs)
        np.testing.assert_array_equal(op.indptr, batch.indptr)
        np.testing.assert_array_equal(op.indices, batch.indices)
        assert m_op.row_names == m_b.row_names == ["c0", "c1", "c2"]

    def test_duplicate_coefficients_merge(self):
        m = Model()
        x = m.add_continuous_var("x")
        row = m.add_linear_constraint([(x, 1.0), (x, 2.0)], "<=", 6)
        assert row_terms(m, row) == {"x": 3.0}

    def test_cancelled_coefficients_drop(self):
        m = Model()
        x = m.add_continuous_var("x")
        y = m.add_continuous_var("y")
        row = m.add_linear_constraint([(x, 1.0), (x, -1.0), (y, 2.0)], "<=", 6)
        assert row_terms(m, row) == {"y": 2.0}
        assert len(m.row_matrix().data) == 1

    def test_operator_path_drops_cancelled_coefficients(self):
        m = Model()
        x = m.add_continuous_var("x")
        y = m.add_continuous_var("y")
        row = m.add_constr(x + 2 * y - x <= 6)
        assert row_terms(m, row) == {"y": 2.0}
        assert len(m.row_matrix().data) == 1

    def test_unknown_sense_rejected(self):
        m = Model()
        x = m.add_continuous_var("x")
        with pytest.raises(ModelError):
            m.add_linear_constraint([(x, 1.0)], "<", 1)

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_continuous_var("x")
        with pytest.raises(ModelError):
            m2.add_linear_constraint([(x, 1.0)], "<=", 1)

    def test_rejected_row_leaves_no_trace(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_continuous_var("x")
        y = m2.add_continuous_var("y")
        with pytest.raises(ModelError):
            m2.add_linear_constraint([(y, 1.0), (x, 1.0)], "<=", 1)
        with pytest.raises(ModelError):
            m2.add_constr(y + x <= 1)
        assert m2.num_rows == 0
        assert len(m2.row_matrix().data) == 0

    def test_mapping_accepted(self):
        m = Model()
        x = m.add_continuous_var("x")
        row = m.add_linear_constraint({x: 2.0}, ">=", 4)
        assert row_terms(m, row) == {"x": 2.0}
        rows = m.row_matrix()
        assert rows.rhs.tolist() == [4.0]
        assert rows.lo.tolist() == [4.0]
        assert rows.hi.tolist() == [np.inf]

    def test_mixed_adds_keep_arrays_consistent(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 10)
        assert m.add_constr(x <= 7, "cap") == 0
        assert m.add_linear_constraint([(x, 1.0)], ">=", 2) == 1
        assert m.add_constr(LinExpr.from_any(x) == 4) == 2
        rows = m.row_matrix()
        assert dense_rows(m).shape == (3, 1)
        assert rows.sense.tolist() == [0, 1, 2]
        assert rows.rhs.tolist() == [7.0, 2.0, 4.0]
        assert rows.lo.tolist() == [-np.inf, 2.0, 4.0]
        assert rows.hi.tolist() == [7.0, np.inf, 4.0]
        assert dense_rows(m).tolist() == [[1.0], [1.0], [1.0]]
        assert m.row_names == ["cap", "", ""]
        assert m.num_rows == 3


class TestDisjunction:
    def test_two_tasks_cannot_overlap(self):
        m = Model(big_m=100)
        a_s = m.add_continuous_var("a_s", 0, 50)
        b_s = m.add_continuous_var("b_s", 0, 50)
        a_e, b_e = a_s + 3, b_s + 4
        m.add_disjunction((a_e, b_s), (b_e, a_s))
        mk = m.add_continuous_var("mk", 0, 100)
        m.add_max_lower_bound(mk, [a_e, b_e])
        m.set_objective(mk)
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)

    def test_disjunction_returns_ordering_binary(self):
        m = Model(big_m=100)
        a = m.add_continuous_var("a", 0, 10)
        b = m.add_continuous_var("b", 0, 10)
        flag = m.add_binary_var  # count before
        order = m.add_disjunction((a + 1, b), (b + 1, a))
        assert order.is_integral


class TestIndicators:
    @pytest.mark.parametrize(
        "values, expected_or, expected_and",
        [
            ((0, 0, 0), 0, 0),
            ((1, 0, 0), 1, 0),
            ((1, 1, 1), 1, 1),
            ((0, 1, 1), 1, 0),
        ],
    )
    def test_or_and_match_truth_table(self, values, expected_or, expected_and):
        m = Model()
        bs = [m.add_binary_var(f"b{i}") for i in range(3)]
        o = m.add_or_indicator(bs)
        a = m.add_and_indicator(bs)
        for b, v in zip(bs, values):
            m.add_constr(LinExpr.from_any(b) == v)
        m.set_objective(LinExpr.sum([o, a]))
        sol = m.solve()
        assert sol.rounded(o) == expected_or
        assert sol.rounded(a) == expected_and

    def test_empty_or_is_false_and_empty_and_is_true(self):
        m = Model()
        o = m.add_or_indicator([])
        a = m.add_and_indicator([])
        m.set_objective(LinExpr.from_any(o) - LinExpr.from_any(a))
        sol = m.solve()
        assert sol.rounded(o) == 0
        assert sol.rounded(a) == 1

    def test_implication_active_when_binary_set(self):
        m = Model(big_m=100)
        b = m.add_binary_var("b")
        x = m.add_continuous_var("x", 0, 50)
        m.add_implication(b, x >= 10)
        m.add_constr(LinExpr.from_any(b) == 1)
        m.set_objective(x)
        assert m.solve().objective == pytest.approx(10.0)

    def test_implication_inert_when_binary_clear(self):
        m = Model(big_m=100)
        b = m.add_binary_var("b")
        x = m.add_continuous_var("x", 0, 50)
        m.add_implication(b, x >= 10)
        m.add_constr(LinExpr.from_any(b) == 0)
        m.set_objective(x)
        assert m.solve().objective == pytest.approx(0.0)


class TestSolutionChecking:
    def test_check_solution_flags_violations(self):
        m = Model()
        x = m.add_integer_var("x", 0, 10)
        m.add_constr(x <= 5, "cap")
        sol = m.solve()
        assert m.check_solution(sol) == []
        sol.values[x] = 9.0
        assert m.check_solution(sol) == ["cap"]

    def test_check_solution_names_unnamed_rows_by_index(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 10)
        m.add_constr(x >= 1, "floor")
        m.add_constr(x <= 5)
        m.add_linear_constraint({x: 1.0}, "==", 3)
        sol = m.solve()
        sol.values[x] = 8.0
        assert m.check_solution(sol) == ["constraint_1", "constraint_2"]
        sol.values[x] = 0.0
        assert m.check_solution(sol) == ["floor", "constraint_2"]

    def test_check_solution_honours_tolerance(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 10)
        m.add_constr(x <= 5, "cap")
        sol = m.solve()
        sol.values[x] = 5.0 + 5e-6
        assert m.check_solution(sol, tol=1e-5) == []
        assert m.check_solution(sol, tol=1e-6) == ["cap"]
