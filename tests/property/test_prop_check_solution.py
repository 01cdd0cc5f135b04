"""Property test: ``Model.check_solution`` flags exactly the violated rows.

``check_solution`` evaluates every row with one sparse matrix-vector
product.  ``adopt_incumbent`` relies on it at ``ADOPT_TOL`` to decide
whether a stored incumbent primes branch-and-bound, which decides the
``warm_started`` key of repair records.  The oracle here is the plain
term-by-term evaluation of each row as it was added.

Values live on a grid (quarters plus multiples of 3e-6), so every row's
excess over its bound sits at least 1e-6 away from ``ADOPT_TOL`` and the
summation order cannot move a row across the tolerance.  Right-hand
sides are drawn next to each row's value at the point, so many rows sit
within a few multiples of 3e-6 of their bound, on both sides of the
tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import LinExpr, Model, Solution, SolveStatus
from repro.ilp.incremental import ADOPT_TOL

UNIT = 3e-6


@st.composite
def rows_and_point(draw):
    n_vars = draw(st.integers(min_value=1, max_value=5))
    grid = st.integers(min_value=-20, max_value=20)
    nudge = st.integers(min_value=-4, max_value=4)
    point = [draw(grid) / 4 + draw(nudge) * UNIT for _ in range(n_vars)]
    quarters = [round(v * 4) / 4 for v in point]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        terms = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_vars - 1),
                    st.integers(min_value=-6, max_value=6),
                ),
                max_size=6,
            )
        )
        # The row's value at the point, without the 3e-6 nudges: exact,
        # since every term is a small integer times a quarter.
        near = sum(coef * quarters[var] for var, coef in terms)
        rhs = near + draw(st.sampled_from([-0.25, 0.0, 0.0, 0.25]))
        rows.append(
            (
                draw(st.sampled_from(["operator", "batch"])),
                terms,
                draw(st.sampled_from(["<=", ">=", "=="])),
                rhs,
                draw(st.sampled_from(["", "named"])),
            )
        )
    return n_vars, rows, point


def _reference_flags(rows, point):
    """Row labels a term-by-term evaluation flags at ``ADOPT_TOL``."""
    flagged = []
    for i, (_path, terms, sense, rhs, name) in enumerate(rows):
        merged = {}
        for var, coef in terms:
            merged[var] = merged.get(var, 0.0) + coef
        lhs = -rhs
        for var, coef in merged.items():
            if coef != 0.0:
                lhs += coef * point[var]
        excess = {"<=": lhs, ">=": -lhs, "==": abs(lhs)}[sense]
        if excess - ADOPT_TOL > 0:
            flagged.append(f"{name}_{i}" if name else f"constraint_{i}")
    return flagged


@given(rows_and_point())
@settings(max_examples=200, deadline=None)
def test_check_solution_flags_exactly_the_violated_rows(case):
    n_vars, rows, point = case
    model = Model("prop")
    xs = [model.add_continuous_var(f"x{j}", -100, 100) for j in range(n_vars)]
    for i, (path, terms, sense, rhs, name) in enumerate(rows):
        label = f"{name}_{i}" if name else ""
        if path == "batch":
            model.add_linear_constraint(
                [(xs[var], float(coef)) for var, coef in terms], sense, rhs, label
            )
        else:
            expr = LinExpr.sum(coef * xs[var] for var, coef in terms)
            relation = {"<=": expr <= rhs, ">=": expr >= rhs, "==": expr == rhs}
            model.add_constr(relation[sense], label)
    solution = Solution(
        SolveStatus.FEASIBLE, values={x: v for x, v in zip(xs, point)}
    )
    assert model.num_rows == len(rows)
    assert model.check_solution(solution, tol=ADOPT_TOL) == _reference_flags(rows, point)
