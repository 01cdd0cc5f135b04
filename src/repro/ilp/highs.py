"""The one HiGHS entry point: SciPy's bundled binding, without ``scipy.optimize``.

SciPy ships HiGHS as the extension module ``scipy/optimize/_highspy/_core``
(the ``Highs``/``HighsLp``/``HighsOptions`` classes).  Importing it the
usual way runs ``scipy/optimize/__init__.py``, which loads ``scipy.sparse``
and the rest of ``scipy.optimize`` — about 49 MB and 0.7 s of import CPU
spent to reach one 6.7 MB binding (docs/PERFORMANCE.md "Where peak memory
goes").  :func:`_load_binding` loads the file directly under its canonical
module name instead, so a later ``import scipy.optimize`` reuses it.

:func:`run` hands HiGHS one problem ``min c @ x  s.t.  row_lower <= A @ x
<= row_upper,  col_lower <= x <= col_upper`` exactly as SciPy's
``_highs_wrapper`` does, and maps the outcome the way
``_highs_to_scipy_status_message`` does.  Both solver rungs go through it:
:mod:`repro.ilp.solver` (the MILP, as ``scipy.optimize.milp`` called it) and
:mod:`repro.ilp.branch_bound` (its LP relaxations, as
``scipy.optimize.linprog(method="highs")`` called it).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Any, Mapping, NamedTuple, Optional

import numpy as np

from repro.errors import SolverError

#: The first SciPy release that bundles the binding.
SCIPY_FLOOR = "1.15"

#: The binding's canonical module name inside SciPy.
BINDING = "scipy.optimize._highspy._core"


def _binding_path() -> Optional[str]:
    """Where the installed SciPy keeps the binding, without importing SciPy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.exists(path):
                return path
    return None


def _load_binding():
    """The HiGHS extension module, loaded by file path.

    Reuses the ``sys.modules`` entry when ``scipy.optimize`` (or an earlier
    call) has already loaded it, so one process never holds two copies.
    """
    loaded = sys.modules.get(BINDING)
    if loaded is not None:
        return loaded
    path = _binding_path()
    if path is None:
        raise SolverError(
            "HiGHS binding scipy/optimize/_highspy/_core"
            f"{importlib.machinery.EXTENSION_SUFFIXES[0]} not found; "
            f"it ships with SciPy >= {SCIPY_FLOOR}"
        )
    spec = importlib.util.spec_from_file_location(BINDING, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[BINDING]
        raise
    return module


_h = _load_binding()

_STATUS = _h.HighsModelStatus

#: HiGHS model status → SciPy's status code and message prefix
#: (``scipy.optimize._linprog_highs._highs_to_scipy_status_message``).
_SCIPY_STATUS = {
    None: (4, "HiGHS did not provide a status code. "),
    _STATUS.kNotset: (4, ""),
    _STATUS.kLoadError: (4, ""),
    _STATUS.kModelError: (2, ""),
    _STATUS.kPresolveError: (4, ""),
    _STATUS.kSolveError: (4, ""),
    _STATUS.kPostsolveError: (4, ""),
    _STATUS.kModelEmpty: (4, ""),
    _STATUS.kObjectiveBound: (4, ""),
    _STATUS.kObjectiveTarget: (4, ""),
    _STATUS.kOptimal: (0, "Optimization terminated successfully. "),
    _STATUS.kTimeLimit: (1, "Time limit reached. "),
    _STATUS.kIterationLimit: (1, "Iteration limit reached. "),
    _STATUS.kInfeasible: (2, "The problem is infeasible. "),
    _STATUS.kUnbounded: (3, "The problem is unbounded. "),
    _STATUS.kUnboundedOrInfeasible: (4, "The problem is unbounded or infeasible. "),
}
_UNRECOGNIZED = (4, "The HiGHS status code was not recognized. ")

#: Limit statuses under which a MIP may still carry an incumbent.
_LIMITS = (_STATUS.kTimeLimit, _STATUS.kIterationLimit, _STATUS.kSolutionLimit)

#: Option values for a dual-simplex LP solve, as ``linprog(method="highs")``
#: sets them.
LP_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": int(_h.HighsDebugLevel.kHighsDebugLevelNone),
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": int(_h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
}


class ColumnMatrix(NamedTuple):
    """A constraint matrix in HiGHS's column-wise form.

    Column ``j``'s entries are ``value[start[j]:start[j + 1]]`` in rows
    ``index[start[j]:start[j + 1]]``, ascending: what ``csc_array(csr)``
    gives for a CSR matrix without duplicate entries.
    """

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    num_row: int


def column_wise(rows, cols, values, num_row: int, num_col: int) -> ColumnMatrix:
    """The entries ``(rows[k], cols[k], values[k])`` — at most one per
    position — as a :class:`ColumnMatrix`, explicit zeros kept."""
    order = np.lexsort((rows, cols))
    start = np.zeros(num_col + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=num_col), out=start[1:])
    return ColumnMatrix(start, rows[order], values[order], num_row)


class HighsResult(NamedTuple):
    """What one HiGHS run returned, in SciPy's terms.

    ``status`` is SciPy's code (0 optimal, 1 limit reached, 2 infeasible,
    3 unbounded, 4 other) and ``message`` SciPy's message for it, which
    quotes the raw ``HighsModelStatus``.  ``x``, ``fun`` and
    ``row_value`` are ``None`` when HiGHS offers no usable point;
    ``mip_gap`` is ``None`` for a model without integer columns.
    """

    status: int
    message: str
    x: Optional[np.ndarray] = None
    fun: Optional[float] = None
    row_value: Optional[np.ndarray] = None
    mip_gap: Optional[float] = None


def _result(model_status, highs_message: str, **found) -> HighsResult:
    status, prefix = _SCIPY_STATUS.get(model_status, _UNRECOGNIZED)
    code = int(model_status) if model_status is not None else None
    message = f"{prefix}(HiGHS Status {code}: {highs_message})"
    return HighsResult(status, message, **found)


def run(
    c: np.ndarray,
    a: ColumnMatrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    integrality: np.ndarray,
    options: Mapping[str, Any],
) -> HighsResult:
    """Solve one problem with HiGHS, as SciPy's ``_highs_wrapper`` does.

    ``integrality`` holds one ``HighsVarType`` code per column, or is
    empty for a pure LP.  ``options`` maps HiGHS option names to values
    and is applied in order to a fresh ``HighsOptions``.  A problem with
    any integer column is judged as a MIP: a limit status still carries
    its incumbent when the objective is finite.  Otherwise only
    ``kOptimal`` carries a point.
    """
    num_col = c.size
    lp = _h.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = a.num_row
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = a.num_row
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = a.start
    lp.a_matrix_.index_ = a.index
    lp.a_matrix_.value_ = a.value
    if integrality.size > 0:
        lp.integrality_ = [_h.HighsVarType(i) for i in integrality]
    is_mip = bool(np.any(integrality))

    highs = _h._Highs()
    highs_options = _h.HighsOptions()
    for key, value in options.items():
        setattr(highs_options, key, value)
    if highs.passOptions(highs_options) == _h.HighsStatus.kError:
        return _result(highs.getModelStatus(), highs.modelStatusToString(highs.getModelStatus()))
    if highs.passModel(lp) == _h.HighsStatus.kError:
        return _result(_STATUS.kModelError, highs.modelStatusToString(_STATUS.kModelError))
    if highs.run() == _h.HighsStatus.kError:
        return _result(highs.getModelStatus(), highs.modelStatusToString(highs.getModelStatus()))

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    if is_mip:
        failed = model_status not in (_STATUS.kOptimal,) + _LIMITS or (
            model_status in _LIMITS and info.objective_function_value == _h.kHighsInf
        )
    else:
        failed = model_status != _STATUS.kOptimal
    if failed:
        return _result(
            model_status,
            f"model_status is {highs.modelStatusToString(model_status)}; "
            f"primal_status is {highs.solutionStatusToString(info.primal_solution_status)}",
        )
    solution = highs.getSolution()
    return _result(
        model_status,
        highs.modelStatusToString(model_status),
        x=np.array(solution.col_value),
        fun=info.objective_function_value,
        row_value=np.array(solution.row_value),
        mip_gap=info.mip_gap if is_mip else None,
    )
