"""Unit tests for the LP-format writer."""

import io

import pytest

from repro.ilp import Model, write_lp
from tests.ilpmodels import scheduling_model


@pytest.fixture
def sample_model():
    m = Model("sample")
    x = m.add_integer_var("x", 0, 10)
    y = m.add_continuous_var("y", 1, 5)
    b = m.add_binary_var("flag")
    m.add_constr(x + 2 * y <= 8, "cap")
    m.add_constr(x - y >= -1, "floor")
    m.add_constr(x + b == 3, "link")
    m.set_objective(3 * x + y, sense="max")
    return m


class TestLpWriter:
    def test_sections_present(self, sample_model):
        text = write_lp(sample_model)
        for section in ("Maximize", "Subject To", "Bounds", "General", "Binary", "End"):
            assert section in text

    def test_objective_rendered(self, sample_model):
        assert "3 x + y" in write_lp(sample_model)

    def test_constraint_senses(self, sample_model):
        text = write_lp(sample_model)
        assert "cap: x + 2 y <= 8" in text
        assert "floor: x - y >= -1" in text
        assert "link: x + flag = 3" in text

    def test_bounds_rendered(self, sample_model):
        text = write_lp(sample_model)
        assert "0 <= x <= 10" in text
        assert "1 <= y <= 5" in text

    def test_binary_not_in_bounds(self, sample_model):
        bounds = write_lp(sample_model).split("Bounds")[1].split("General")[0]
        assert "flag" not in bounds

    def test_stream_output(self, sample_model):
        buf = io.StringIO()
        text = write_lp(sample_model, buf)
        assert buf.getvalue() == text

    def test_bracketed_names_sanitized(self):
        m = Model()
        v = m.add_binary_var("x[a,b]")
        m.add_constr(v <= 1)
        m.set_objective(v)
        text = write_lp(m)
        assert "[" not in text.split("\n", 1)[1]

    def test_minimize_header(self):
        m = Model()
        x = m.add_continuous_var("x")
        m.set_objective(x)
        assert write_lp(m).splitlines()[1] == "Minimize"

    def test_infinite_bounds(self):
        m = Model()
        m.add_continuous_var("free", lb=float("-inf"))
        m.set_objective(0 * m.variables[0])
        assert "-inf <= free <= +inf" in write_lp(m)

    def test_coefficients_keep_every_digit(self):
        m = Model()
        x = m.add_continuous_var("x", 0, 10.000001)
        y = m.add_continuous_var("y")
        m.add_linear_constraint({x: 12.15005, y: -1e-05}, "<=", 1234567.5, "c")
        m.set_objective(11.25005 * x + 3 * y)
        text = write_lp(m)
        assert "obj: 11.25005 x + 3 y" in text
        assert "c: 12.15005 x - 1e-05 y <= 1234567.5" in text
        assert "0 <= x <= 10.000001" in text


def _parse_terms(body):
    """``[(name, coefficient)]`` of an LP-format sum."""
    if body == "0":
        return []
    tokens = body.split()
    terms, i = [], 0
    while i < len(tokens):
        sign = 1.0
        if tokens[i] in "+-":
            sign = -1.0 if tokens[i] == "-" else 1.0
            i += 1
        if i + 1 < len(tokens) and tokens[i + 1] not in "+-":
            coef, name = float(tokens[i]), tokens[i + 1]
            i += 2
        else:
            coef, name = 1.0, tokens[i]
            i += 1
        terms.append((name, sign * coef))
    return terms


@pytest.mark.parametrize("benchmark_name", ["PCR", "IVD"])
def test_lp_text_round_trips_the_scheduling_model(benchmark_name):
    model = scheduling_model(benchmark_name)
    lines = write_lp(model).splitlines()
    start, end = lines.index("Subject To"), lines.index("Bounds")

    # Variable names in index order: Bounds lists the non-binaries, Binary
    # the binaries, each in index order.
    bounds = [line.split(" <= ")[1] for line in lines[end + 1:] if " <= " in line]
    binaries = lines[lines.index("Binary") + 1:lines.index("End")]
    pools = {True: iter(b.strip() for b in binaries), False: iter(bounds)}
    index = {
        next(pools[var.vtype.name == "BINARY"]): var.index for var in model.variables
    }

    objective = _parse_terms(lines[2].split("obj: ", 1)[1])
    assert [(index[n], c) for n, c in objective] == sorted(
        (var.index, coef) for var, coef in model.objective.terms.items()
    )

    rows = model.row_matrix()
    sense_tokens = {0: "<=", 1: ">=", 2: "="}
    constraint_lines = lines[start + 1:end]
    assert len(constraint_lines) == model.num_rows
    for i, line in enumerate(constraint_lines):
        body, sense, rhs = line.split(": ", 1)[1].rsplit(" ", 2)
        span = slice(rows.indptr[i], rows.indptr[i + 1])
        want = list(zip(rows.indices[span].tolist(), rows.data[span].tolist()))
        assert [(index[n], c) for n, c in _parse_terms(body)] == want, line
        assert sense == sense_tokens[int(rows.sense[i])], line
        assert float(rhs) == rows.rhs[i], line
