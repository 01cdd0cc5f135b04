"""Linear expressions over decision variables.

The classes here are deliberately minimal: a :class:`Variable` is an opaque
handle owned by a :class:`~repro.ilp.model.Model`, and a :class:`LinExpr` is
an immutable-by-convention mapping ``variable -> coefficient`` plus a
constant offset.  Arithmetic (`+`, `-`, `*` by scalars, `sum(...)`) and
comparisons (`<=`, `>=`, `==` produce constraints) follow the conventions of
mainstream modeling layers (PuLP, gurobipy), so the formulation code in
:mod:`repro.core` reads like the paper's equations.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.errors import ModelError

Number = Union[int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A single decision variable.

    Instances are created through :meth:`repro.ilp.model.Model.add_var` and
    compare/hash by identity, so they can key dictionaries cheaply.
    """

    __slots__ = ("index", "name", "lb", "ub", "vtype")

    def __init__(self, index: int, name: str, lb: float, ub: float, vtype: VarType):
        if math.isnan(lb) or math.isnan(ub):
            raise ModelError(f"variable {name!r}: NaN bound")
        if lb > ub:
            raise ModelError(f"variable {name!r}: lower bound {lb} exceeds upper bound {ub}")
        self.index = index
        self.name = name
        self.lb = float(lb)
        self.ub = float(ub)
        self.vtype = vtype

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.vtype in (VarType.INTEGER, VarType.BINARY)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {self.vtype.value})"

    # -- arithmetic: delegate to LinExpr ---------------------------------

    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (-1.0) * self._as_expr() + other

    def __mul__(self, other: Number) -> "LinExpr":
        return self._as_expr() * other

    def __rmul__(self, other: Number) -> "LinExpr":
        return self._as_expr() * other

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    def __le__(self, other: "ExprLike"):
        return self._as_expr() <= other

    def __ge__(self, other: "ExprLike"):
        return self._as_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


ExprLike = Union[Variable, "LinExpr", Number]


class LinExpr:
    """A linear expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0):
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, terms: Dict[Variable, float], constant: float) -> "LinExpr":
        """Internal constructor adopting ``terms`` without copying.

        The caller hands over ownership of the dict — used by the
        arithmetic fast paths and :class:`LinExprBuilder` so building an
        N-term expression allocates one dict, not N.
        """
        out = cls.__new__(cls)
        out.terms = terms
        out.constant = constant
        return out

    @staticmethod
    def from_any(value: ExprLike) -> "LinExpr":
        """Coerce a variable, number, or expression into a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._as_expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot build a linear expression from {type(value).__name__}")

    @staticmethod
    def sum(items: Iterable[ExprLike]) -> "LinExpr":
        """Sum an iterable of expression-likes in linear time.

        Unlike built-in ``sum`` (or the pre-optimization version of this
        method), no intermediate expressions are allocated: a single
        :class:`LinExprBuilder` accumulates every term in place, so
        summing N expressions costs O(total terms), not O(N^2) dict
        copies.
        """
        builder = LinExprBuilder()
        for item in items:
            builder.add(item)
        return builder.build()

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: ExprLike) -> "LinExpr":
        # Fast paths: one dict copy, no intermediate LinExpr wrappers.
        if isinstance(other, Variable):
            terms = dict(self.terms)
            terms[other] = terms.get(other, 0.0) + 1.0
            return LinExpr._raw(terms, self.constant)
        if isinstance(other, (int, float)):
            return LinExpr._raw(dict(self.terms), self.constant + other)
        rhs = LinExpr.from_any(other)
        terms = dict(self.terms)
        for var, coef in rhs.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
        return LinExpr._raw(terms, self.constant + rhs.constant)

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (LinExpr.from_any(other) * -1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        return LinExpr({v: c * scalar for v, c in self.terms.items()}, self.constant * scalar)

    def __rmul__(self, scalar: Number) -> "LinExpr":
        return self * scalar

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons build constraints -----------------------------------

    def __le__(self, other: ExprLike) -> Tuple["LinExpr", str]:
        return (self - LinExpr.from_any(other), "<=")

    def __ge__(self, other: ExprLike) -> Tuple["LinExpr", str]:
        return (self - LinExpr.from_any(other), ">=")

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return (self - LinExpr.from_any(other), "==")
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    # -- introspection ----------------------------------------------------

    def variables(self) -> Tuple[Variable, ...]:
        """Variables appearing with a (possibly zero) coefficient."""
        return tuple(self.terms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{c:+g}*{v.name}" for v, c in sorted(self.terms.items(), key=lambda t: t[0].index)]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


class LinExprBuilder:
    """In-place accumulator for building a :class:`LinExpr` from many parts.

    ``LinExpr.__add__`` returns a fresh expression per call, so folding N
    expressions through it copies the growing term dict N times.  The
    builder keeps one mutable dict, merges each added item into it, and
    hands the dict over to the final expression via :meth:`build` —
    :meth:`LinExpr.sum` and the hot formulation loops use it to stay
    linear in the total number of terms.
    """

    __slots__ = ("_terms", "_constant")

    def __init__(self) -> None:
        self._terms: Dict[Variable, float] = {}
        self._constant = 0.0

    def add(self, item: ExprLike, scale: float = 1.0) -> "LinExprBuilder":
        """Accumulate ``scale * item``; returns self for chaining."""
        terms = self._terms
        if isinstance(item, Variable):
            terms[item] = terms.get(item, 0.0) + scale
        elif isinstance(item, LinExpr):
            if scale == 1.0:
                for var, coef in item.terms.items():
                    terms[var] = terms.get(var, 0.0) + coef
                self._constant += item.constant
            else:
                for var, coef in item.terms.items():
                    terms[var] = terms.get(var, 0.0) + coef * scale
                self._constant += item.constant * scale
        elif isinstance(item, (int, float)):
            self._constant += item * scale
        else:
            raise TypeError(
                f"cannot accumulate {type(item).__name__} into a linear expression"
            )
        return self

    def build(self) -> LinExpr:
        """Finish and return the accumulated expression.

        The builder resets afterwards, so it can be reused; the returned
        expression owns the term dict (no copy).
        """
        out = LinExpr._raw(self._terms, float(self._constant))
        self._terms = {}
        self._constant = 0.0
        return out
