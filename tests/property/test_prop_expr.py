"""Property tests: linear-expression algebra is a vector space."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import LinExpr, Model

coeffs = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def make_exprs(coef_lists):
    """Build expressions over a shared variable pool."""
    m = Model("prop")
    n = max((len(c) for c in coef_lists), default=0)
    vs = [m.add_continuous_var(f"v{i}") for i in range(n)]
    out = []
    for coefs in coef_lists:
        expr = LinExpr()
        for v, c in zip(vs, coefs):
            expr = expr + c * v
        out.append(expr)
    return out


def assert_equal_expr(a: LinExpr, b: LinExpr, tol=1e-6):
    diff = a - b
    assert all(abs(c) <= tol for c in diff.terms.values()), (a, b)
    assert abs(diff.constant) <= tol


@given(st.lists(coeffs, min_size=1, max_size=6), st.lists(coeffs, min_size=1, max_size=6))
@settings(max_examples=100)
def test_addition_commutes(ca, cb):
    a, b = make_exprs([ca, cb])
    assert_equal_expr(a + b, b + a)


@given(
    st.lists(coeffs, min_size=1, max_size=5),
    st.lists(coeffs, min_size=1, max_size=5),
    st.lists(coeffs, min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_addition_associates(ca, cb, cc):
    a, b, c = make_exprs([ca, cb, cc])
    assert_equal_expr((a + b) + c, a + (b + c))


@given(st.lists(coeffs, min_size=1, max_size=6), coeffs, coeffs)
@settings(max_examples=100)
def test_scalar_distributes(ca, s, t):
    (a,) = make_exprs([ca])
    assert_equal_expr((s + t) * a, s * a + t * a, tol=1e-4 * (1 + abs(s) + abs(t)))


@given(st.lists(coeffs, min_size=1, max_size=6))
@settings(max_examples=100)
def test_subtraction_is_additive_inverse(ca):
    (a,) = make_exprs([ca])
    assert_equal_expr(a - a, LinExpr())


@given(st.lists(coeffs, min_size=1, max_size=6), coeffs)
@settings(max_examples=100)
def test_negation_is_scaling_by_minus_one(ca, k):
    (a,) = make_exprs([ca])
    assert_equal_expr(-(a + k), (-1.0) * a - k)
