"""The :class:`Model` container and constraint helpers.

A :class:`Model` owns variables and linear constraints and knows how to
encode the disjunctive ("either-or") patterns that the paper's formulation
uses heavily: Eqs. (2), (3), (8), (19) and (20) all take the big-M form

.. math::

    (1 - b) M + t_1 \\ge t_2  \\quad\\wedge\\quad  b M + t_3 \\ge t_4

with a fresh binary ``b`` ordering two tasks.  :meth:`Model.add_disjunction`
captures exactly that pattern.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.errors import ModelError
from repro.ilp.expr import ExprLike, LinExpr, Variable, VarType
from repro.ilp.solution import Solution

#: Constraint senses as stored internally.
SENSES = ("<=", ">=", "==")

#: Compact sense encoding used by the triplet buffers.
SENSE_CODES = {"<=": 0, ">=": 1, "==": 2}

#: Coefficients accepted by :meth:`Model.add_linear_constraint`.
CoeffsLike = Union[Mapping[Variable, float], Iterable[Tuple[Variable, float]]]


class RowMatrix(NamedTuple):
    """The constraint rows as CSR arrays: ``lo <= A @ x <= hi``.

    Row ``i`` of ``A`` holds the coefficients ``data[indptr[i]:indptr[i+1]]``
    on the columns ``indices[indptr[i]:indptr[i+1]]``, ascending — SciPy's
    canonical CSR order.  All seven fields are compact ``array.array``
    buffers (``'q'`` indices, ``'d'`` values, ``'b'`` senses).  ``sense``
    keeps each row's :data:`SENSE_CODES` entry and ``rhs`` its right-hand
    side, so readers that need the original orientation
    (branch-and-bound's ``A_ub``/``A_eq`` split, the LP writer) recover it
    without guessing from infinite bounds.
    """

    indptr: array
    indices: array
    data: array
    lo: array
    hi: array
    sense: array
    rhs: array

    def activities(self, x: Sequence[float]) -> List[float]:
        """``A @ x``, each row summed in storage order from ``0.0`` — the
        order ``np.bincount`` and SciPy's CSR product sum in."""
        indptr, indices, data = self.indptr, self.indices, self.data
        out = []
        for i in range(len(self.rhs)):
            total = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                total += data[k] * x[indices[k]]
            out.append(total)
        return out


class Model:
    """A mixed-integer linear program under construction.

    Variables are added through :meth:`add_var` (or the typed shortcuts
    :meth:`add_binary_var`, :meth:`add_integer_var`,
    :meth:`add_continuous_var`), constraints through :meth:`add_constr`,
    and the model is solved with :meth:`solve`, which dispatches to the
    HiGHS backend by default.
    """

    def __init__(self, name: str = "model", big_m: float = 10_000.0):
        if big_m <= 0:
            raise ModelError("big-M must be positive")
        self.name = name
        self.big_m = float(big_m)
        self.variables: List[Variable] = []
        self.objective: LinExpr = LinExpr()
        self.objective_sense: str = "min"
        self._names: set[str] = set()
        # The constraint rows, stored once: COO triplets plus one sense
        # code, right-hand side and name per row.  `row_matrix` turns them
        # into the CSR matrix every reader uses.
        self._rows = array("q")
        self._cols = array("q")
        self._vals = array("d")
        self._sense_codes = array("b")
        self._rhs = array("d")
        self.row_names: List[str] = []

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a fresh decision variable."""
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if vtype is VarType.BINARY:
            lb, ub = max(0.0, lb), min(1.0, ub)
        var = Variable(len(self.variables), name, lb, ub, vtype)
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary_var(self, name: str) -> Variable:
        """Shortcut for a 0/1 variable."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_integer_var(self, name: str, lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Shortcut for a general integer variable."""
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def add_continuous_var(self, name: str, lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Shortcut for a continuous variable."""
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------

    def add_constr(self, relation: Tuple[LinExpr, str] | bool, name: str = "") -> int:
        """Add a constraint produced by comparing expressions; returns its row.

        ``relation`` is the ``(expr, sense)`` pair produced by ``lhs <= rhs``
        etc.  A bare ``bool`` (which Python produces when two *identical*
        plain numbers are compared) is rejected with a helpful error.
        Exact-zero coefficients are dropped.
        """
        if isinstance(relation, bool):
            raise ModelError(
                "expected a linear relation; got a plain bool — "
                "at least one side must involve a Variable"
            )
        expr, sense = relation
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        for var in expr.terms:
            if var.index >= len(self.variables) or self.variables[var.index] is not var:
                raise ModelError(f"variable {var.name!r} belongs to a different model")
        terms = {v: c for v, c in expr.terms.items() if abs(c) > 0.0}
        return self._append_row(terms, sense, -expr.constant, name)

    def add_linear_constraint(
        self,
        coeffs: CoeffsLike,
        sense: str,
        rhs: float,
        name: str = "",
    ) -> int:
        """Batch API: add ``sum(coef * var) <sense> rhs`` from raw coefficients.

        ``coeffs`` is a ``{var: coef}`` mapping or an iterable of
        ``(var, coef)`` pairs; repeated variables are summed and exact-zero
        coefficients dropped, matching what the operator-overloading path
        produces.  The row is appended straight into the model's triplet
        arrays, bypassing every intermediate :class:`LinExpr` the
        ``lhs <= rhs`` comparison chain would allocate — this is the hot
        path for the PDW formulation loops.  Returns the row index.
        """
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        variables = self.variables
        n_vars = len(variables)
        terms: Dict[Variable, float] = {}
        for var, coef in items:
            prev = terms.get(var)
            if prev is None:
                if var.index >= n_vars or variables[var.index] is not var:
                    raise ModelError(
                        f"variable {var.name!r} belongs to a different model"
                    )
                terms[var] = float(coef)
            else:
                terms[var] = prev + coef
        if 0.0 in terms.values():
            terms = {v: c for v, c in terms.items() if c != 0.0}
        return self._append_row(terms, sense, float(rhs), name)

    def _append_row(
        self, terms: Mapping[Variable, float], sense: str, rhs: float, name: str
    ) -> int:
        """Append one constraint row to the triplet arrays; returns its index."""
        row = len(self.row_names)
        rows, cols, vals = self._rows, self._cols, self._vals
        for var, coef in terms.items():
            rows.append(row)
            cols.append(var.index)
            vals.append(coef)
        self._sense_codes.append(SENSE_CODES[sense])
        self._rhs.append(rhs)
        self.row_names.append(name)
        return row

    @property
    def num_rows(self) -> int:
        """Number of constraint rows."""
        return len(self.row_names)

    def row_matrix(self) -> RowMatrix:
        """The constraint rows as CSR arrays with row bounds.

        The one conversion from the triplet arrays: the HiGHS backend,
        branch-and-bound, :meth:`check_solution` and the LP writer all
        read rows through it.  Rows are appended in order and never hold
        a variable twice, so sorting each row's entries by column gives
        exactly the CSR arrays ``scipy.sparse.csr_matrix`` would build
        from the triplets.
        """
        rows, cols, vals = self._rows, self._cols, self._vals
        num_rows = len(self._rhs)
        indptr = array("q", [bisect_left(rows, i) for i in range(num_rows + 1)])
        indices, data = array("q"), array("d")
        for begin, end in zip(indptr, indptr[1:]):
            for col, value in sorted(zip(cols[begin:end], vals[begin:end])):
                indices.append(col)
                data.append(value)
        inf = float("inf")
        lo, hi = array("d"), array("d")
        for code, rhs in zip(self._sense_codes, self._rhs):
            lo.append(-inf if code == SENSE_CODES["<="] else rhs)
            hi.append(inf if code == SENSE_CODES[">="] else rhs)
        return RowMatrix(
            indptr, indices, data, lo, hi, array("b", self._sense_codes), array("d", self._rhs)
        )

    # ------------------------------------------------------------------
    # the big-M ordering pattern (Eqs. 2, 3, 8, 19, 20)
    # ------------------------------------------------------------------

    def add_disjunction(
        self,
        before: Tuple[ExprLike, ExprLike],
        after: Tuple[ExprLike, ExprLike],
        name: str = "ord",
    ) -> Variable:
        """Encode "either A ends before B starts, or B ends before A starts".

        ``before = (end_a, start_b)`` activates ``start_b >= end_a`` when the
        returned binary is 1; ``after = (end_b, start_a)`` activates
        ``start_a >= end_b`` when it is 0.  This is the paper's recurring

        .. math::

            (1-b) M + s_b \\ge e_a, \\qquad b M + s_a \\ge e_b

        pattern.  Returns the ordering binary.
        """
        b = self.add_binary_var(f"{name}[{len(self.variables)}]")
        end_a, start_b = before
        end_b, start_a = after
        #   start_b + (1-b)M >= end_a
        self.add_constr(
            LinExpr.from_any(start_b) + self.big_m * (1 - LinExpr.from_any(b) * 1.0) >= end_a,
            f"{name}_fwd",
        )
        #   start_a + bM >= end_b
        self.add_constr(
            LinExpr.from_any(start_a) + self.big_m * LinExpr.from_any(b) >= end_b,
            f"{name}_bwd",
        )
        return b

    # ------------------------------------------------------------------
    # objective / solving
    # ------------------------------------------------------------------

    def set_objective(self, expr: ExprLike, sense: str = "min") -> None:
        """Set the (linear) objective and its optimization direction."""
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.objective = LinExpr.from_any(expr)
        self.objective_sense = sense

    def solve(
        self,
        time_limit_s: float | None = None,
        mip_gap: float | None = None,
        backend: Optional[Callable[["Model"], Solution]] = None,
    ) -> Solution:
        """Solve the model; defaults to the HiGHS backend.

        ``backend`` may be any callable mapping a model to a
        :class:`~repro.ilp.solution.Solution` (e.g. a configured
        :class:`~repro.ilp.branch_bound.BranchAndBoundSolver`).
        """
        if backend is not None:
            return backend(self)
        from repro.ilp.solver import solve as highs_solve

        return highs_solve(self, time_limit_s=time_limit_s, mip_gap=mip_gap)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_solution(self, solution: Solution, tol: float = 1e-5) -> List[str]:
        """Names (or ``constraint_<i>``) of the rows ``solution`` violates.

        One pass over the stored coefficients evaluates every row
        (:meth:`RowMatrix.activities`); a row is violated when ``A @ x``
        leaves ``[lo, hi]`` by more than ``tol``.
        """
        rows = self.row_matrix()
        x = [float(solution.values[var]) for var in self.variables]
        lhs = rows.activities(x)
        return [
            self.row_names[i] or f"constraint_{i}"
            for i, (value, lo, hi) in enumerate(zip(lhs, rows.lo, rows.hi))
            if max(value - hi, lo - value) - tol > 0
        ]

    @property
    def num_binaries(self) -> int:
        """Number of 0/1 variables in the model."""
        return sum(1 for v in self.variables if v.vtype is VarType.BINARY)

    def stats(self) -> str:
        """One-line size summary, handy for logging."""
        return (
            f"{self.name}: {len(self.variables)} vars "
            f"({self.num_binaries} bin), {self.num_rows} constrs"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Model({self.stats()})"
