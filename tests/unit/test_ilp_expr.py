"""Unit tests for linear-expression algebra."""

import pytest

from repro.errors import ModelError
from repro.ilp import LinExpr, LinExprBuilder, Model


@pytest.fixture
def model():
    return Model("t")


@pytest.fixture
def xy(model):
    return model.add_continuous_var("x"), model.add_continuous_var("y")


class TestVariable:
    def test_bounds_validation(self, model):
        with pytest.raises(ModelError):
            model.add_var("bad", lb=5, ub=1)

    def test_nan_bound_rejected(self, model):
        with pytest.raises(ModelError):
            model.add_var("bad", lb=float("nan"))

    def test_binary_clamps_bounds(self, model):
        b = model.add_binary_var("b")
        assert (b.lb, b.ub) == (0.0, 1.0)
        assert b.is_integral

    def test_integer_is_integral(self, model):
        assert model.add_integer_var("i").is_integral

    def test_continuous_not_integral(self, xy):
        assert not xy[0].is_integral

    def test_duplicate_names_rejected(self, model):
        model.add_continuous_var("x")
        with pytest.raises(ModelError):
            model.add_continuous_var("x")


class TestLinExprArithmetic:
    def test_add_variables(self, xy):
        x, y = xy
        expr = x + y
        assert expr.terms == {x: 1.0, y: 1.0}
        assert expr.constant == 0.0

    def test_add_constant(self, xy):
        x, _ = xy
        assert (x + 3).constant == 3.0
        assert (3 + x).constant == 3.0

    def test_subtract(self, xy):
        x, y = xy
        expr = x - y - 2
        assert expr.terms == {x: 1.0, y: -1.0}
        assert expr.constant == -2.0

    def test_rsub(self, xy):
        x, _ = xy
        expr = 5 - x
        assert expr.terms == {x: -1.0}
        assert expr.constant == 5.0

    def test_scalar_multiplication(self, xy):
        x, y = xy
        expr = 3 * x + y * 2
        assert expr.terms == {x: 3.0, y: 2.0}

    def test_negation(self, xy):
        x, _ = xy
        assert (-x).terms == {x: -1.0}

    def test_non_scalar_multiplication_rejected(self, xy):
        x, y = xy
        with pytest.raises(TypeError):
            LinExpr.from_any(x) * LinExpr.from_any(y)  # type: ignore[operator]

    def test_sum_helper(self, model):
        vs = [model.add_continuous_var(f"v{i}") for i in range(5)]
        expr = LinExpr.sum(vs)
        assert all(expr.terms[v] == 1.0 for v in vs)

    def test_sum_empty(self):
        expr = LinExpr.sum([])
        assert expr.terms == {} and expr.constant == 0.0

    def test_from_any_rejects_strings(self):
        with pytest.raises(TypeError):
            LinExpr.from_any("nope")  # type: ignore[arg-type]


class TestLinExprBuilder:
    def test_accumulates_variables_exprs_and_constants(self, model):
        x, y = model.add_continuous_var("x"), model.add_continuous_var("y")
        expr = (
            LinExprBuilder()
            .add(x)
            .add(2 * y + 1, scale=1.0)
            .add(3)
            .add(x, scale=0.5)
            .build()
        )
        assert expr.terms == {x: 1.5, y: 2.0}
        assert expr.constant == 4.0

    def test_scaled_expr(self, model):
        x = model.add_continuous_var("x")
        expr = LinExprBuilder().add(x + 2, scale=3.0).build()
        assert expr.terms == {x: 3.0}
        assert expr.constant == 6.0

    def test_build_resets_builder(self, model):
        x = model.add_continuous_var("x")
        b = LinExprBuilder()
        first = b.add(x).build()
        second = b.add(x, scale=2.0).build()
        assert first.terms == {x: 1.0}
        assert second.terms == {x: 2.0}

    def test_rejects_unknown_operands(self):
        with pytest.raises(TypeError):
            LinExprBuilder().add("nope")  # type: ignore[arg-type]


class TestSumLinearity:
    def test_sum_never_calls_add(self, model, monkeypatch):
        """Regression: ``LinExpr.sum`` must not fold via ``__add__``.

        The old implementation reduced with ``+``, copying the growing
        accumulator dict once per operand — O(N^2) over N expressions.
        The builder-backed version keeps one mutable dict, so ``__add__``
        (and its dict-copying cost) never runs.
        """

        def boom(self, other):
            raise AssertionError("LinExpr.sum fell back to quadratic __add__")

        vs = [model.add_continuous_var(f"v{i}") for i in range(50)]
        exprs = [2.0 * v + 1.0 for v in vs]
        monkeypatch.setattr(LinExpr, "__add__", boom)
        monkeypatch.setattr(LinExpr, "__radd__", boom)
        total = LinExpr.sum(exprs + [5.0])
        assert total.constant == 55.0
        assert total.terms == {v: 2.0 for v in vs}


class TestComparisons:
    def test_le_builds_relation(self, xy):
        x, y = xy
        expr, sense = x + y <= 5
        assert sense == "<="
        assert expr.constant == -5.0

    def test_ge_builds_relation(self, xy):
        x, _ = xy
        _, sense = x >= 1
        assert sense == ">="

    def test_eq_builds_relation(self, xy):
        x, y = xy
        expr, sense = x == y
        assert sense == "=="
        assert expr.terms == {x: 1.0, y: -1.0}

    def test_variable_comparison_constant(self, xy):
        x, _ = xy
        expr, sense = x <= 3
        assert sense == "<=" and expr.constant == -3.0
