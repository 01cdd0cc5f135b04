"""The one HiGHS entry point: SciPy's bundled binding, fed an EMS file.

SciPy ships HiGHS as the extension module ``scipy/optimize/_highspy/_core``
(the ``Highs``/``HighsOptions`` classes).  Importing it the usual way runs
``scipy/optimize/__init__.py``, which loads ``scipy.sparse`` and the rest
of ``scipy.optimize`` — about 49 MB and 0.7 s of import CPU spent to reach
one 6.7 MB binding (docs/PERFORMANCE.md "Where peak memory goes").
:func:`_load_binding` loads the file directly under its canonical module
name instead, so a later ``import scipy.optimize`` reuses it.

:class:`LoadedProblem` hands HiGHS one problem ``min c @ x  s.t.
row_lower <= A @ x <= row_upper,  col_lower <= x <= col_upper`` as a
private temporary file in HiGHS's own array format, EMS, and maps each
solve's outcome the way SciPy's ``_highs_to_scipy_status_message`` does.  The binding's ``HighsLp``
setters take numpy arrays, and touching any of them imports numpy;
``readModel`` and ``getSolution`` do not, so no planning process loads
numpy (docs/PERFORMANCE.md "HiGHS through an EMS file").  ``readModel``
hands the parsed model to the same ``passModel`` a ``HighsLp`` went
through, so HiGHS solves the very problem ``scipy.optimize.milp`` and
``linprog(method="highs")`` gave it.  :mod:`repro.ilp.solver` reads the
MILP into a :class:`LoadedProblem` and drops the :class:`Problem` before
solving it once; :mod:`repro.ilp.branch_bound` reads its LP relaxation
once into a :class:`LoadedProblem` and re-solves it per node.

Before a process's first HiGHS instance, or before its first forked
child (:class:`repro.procutil.Child`), :func:`pin_mmap_threshold` holds
glibc's mmap threshold at its default, so the buffers HiGHS frees go
back to the OS instead of fragmenting the heap.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import tempfile
from array import array
from itertools import accumulate
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, TextIO

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


#: ``mallopt``'s parameter number for the mmap threshold (glibc's ``malloc.h``).
_M_MMAP_THRESHOLD = -3

#: glibc's own default mmap threshold, which :func:`pin_mmap_threshold`
#: holds in place.
MMAP_THRESHOLD = 128 * 1024

#: Whether the threshold is still to pin in this process: before its
#: first HiGHS instance (:class:`LoadedProblem`) or its first forked
#: child (:class:`repro.procutil.Child`), whichever comes first.
_pin_pending = True


def pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold, up to 32 MB, each time a mmapped block is
    freed, so after HiGHS frees its first large vectors the next ones are
    carved from the brk heap, which fragments and is never given back.
    Setting the threshold once fixes it (and the trim threshold) in
    place: HiGHS's large vectors stay mmapped and go back to the OS when
    freed (docs/PERFORMANCE.md "HiGHS's freed buffers go back to the
    OS").  A no-op where the C library has no ``mallopt``.
    """
    global _pin_pending
    _pin_pending = False
    try:
        import ctypes

        ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (AttributeError, OSError, TypeError):
        pass


class ColumnMatrix(NamedTuple):
    """A constraint matrix in HiGHS's column-wise form.

    Column ``j``'s entries are ``value[start[j]:start[j + 1]]`` in rows
    ``index[start[j]:start[j + 1]]``, ascending: what ``csc_array(csr)``
    gives for a CSR matrix without duplicate entries.
    """

    start: array
    index: array
    value: array
    num_row: int


def column_wise(indptr, indices, data, num_col: int) -> ColumnMatrix:
    """The CSR matrix ``(indptr, indices, data)`` as a :class:`ColumnMatrix`.

    A counting sort by column: visiting the rows in order keeps each
    column's rows ascending.  Explicit zeros are kept.
    """
    counts = array("q", [0]) * (num_col + 1)
    for j in indices:
        counts[j + 1] += 1
    start = array("q", accumulate(counts))
    fill = start[:-1]
    index = array("q", [0]) * len(indices)
    value = array("d", [0.0]) * len(indices)
    for row in range(len(indptr) - 1):
        for k in range(indptr[row], indptr[row + 1]):
            j = indices[k]
            slot = fill[j]
            fill[j] = slot + 1
            index[slot] = row
            value[slot] = data[k]
    return ColumnMatrix(start, index, value, len(indptr) - 1)


#: Numbers per write while streaming one EMS line.
_CHUNK = 4096


def _bound(value: float) -> str:
    """A bound as EMS text.  The reader cannot parse ``inf``; HiGHS treats
    any bound at or past ``infinite_bound`` (1e20) as infinite."""
    if value == math.inf:
        return "1e300"
    if value == -math.inf:
        return "-1e300"
    return repr(value)


def _write_line(out: TextIO, values: Sequence, text=repr) -> None:
    """``values`` as one space-separated EMS line, streamed in chunks."""
    for i in range(0, len(values), _CHUNK):
        out.write(" ".join(map(text, values[i:i + _CHUNK])))
        out.write(" ")
    out.write("\n")


class Problem(NamedTuple):
    """``min c @ x  s.t.  row_lower <= A @ x <= row_upper`` in EMS terms.

    The column bounds are left open: :class:`LoadedProblem` takes them
    per solve.
    ``integer_columns`` lists the columns HiGHS must keep integral; a
    problem without any is a pure LP.  Numbers are written with ``repr``,
    so HiGHS parses back the very doubles held here.
    """

    c: Sequence[float]
    a: ColumnMatrix
    row_lower: Sequence[float]
    row_upper: Sequence[float]
    integer_columns: Sequence[int] = ()

    @property
    def is_mip(self) -> bool:
        return len(self.integer_columns) > 0

    def write(self, out: TextIO, col_lower: Sequence[float], col_upper: Sequence[float]) -> None:
        """This problem within the column bounds as one EMS file.  The
        reader rejects a file without ``names``, so columns and rows get
        positional ones."""
        a = self.a
        out.write(
            f"n_rows\n{a.num_row}\nn_columns\n{len(self.c)}\n"
            f"n_matrix_elements\n{len(a.index)}\nmatrix\n"
        )
        _write_line(out, a.start)
        _write_line(out, a.index)
        _write_line(out, a.value)
        out.write("column_bounds\n")
        _write_line(out, col_lower, _bound)
        _write_line(out, col_upper, _bound)
        out.write("row_bounds\n")
        _write_line(out, self.row_lower, _bound)
        _write_line(out, self.row_upper, _bound)
        out.write("column_costs\n")
        _write_line(out, self.c)
        if self.is_mip:
            out.write(f"integer_columns\n{len(self.integer_columns)}\n")
            _write_line(out, self.integer_columns)
        out.write("names\ncolumns\n")
        for j in range(len(self.c)):
            out.write(f"c{j}\n")
        out.write("rows\n")
        for i in range(a.num_row):
            out.write(f"r{i}\n")


class HighsResult(NamedTuple):
    """What one HiGHS run returned, in SciPy's terms.

    ``status`` is SciPy's code (0 optimal, 1 limit reached, 2 infeasible,
    3 unbounded, 4 other) and ``message`` SciPy's message for it, which
    quotes the raw ``HighsModelStatus``.  ``x``, ``fun`` and
    ``row_value`` are ``None`` when HiGHS offers no usable point;
    ``mip_gap`` and ``mip_dual_bound`` (the proven bound on ``fun``) are
    ``None`` for a model without integer columns.
    """

    status: int
    message: str
    x: Optional[List[float]] = None
    fun: Optional[float] = None
    row_value: Optional[List[float]] = None
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None


def _result(model_status, highs_message: str, **found) -> HighsResult:
    status, prefix = _SCIPY_STATUS.get(model_status, _UNRECOGNIZED)
    code = int(model_status) if model_status is not None else None
    message = f"{prefix}(HiGHS Status {code}: {highs_message})"
    return HighsResult(status, message, **found)


def _read(highs, problem, col_lower: Sequence[float], col_upper: Sequence[float]):
    """Stream ``problem`` under the given column bounds through a private
    ``.ems`` file in the temporary directory into ``highs``; the file is
    gone when this returns.  A file that cannot be written is a
    :class:`SolverError`, which the ladder answers with its next rung."""
    try:
        fd, path = tempfile.mkstemp(suffix=".ems", prefix="repro-highs-")
    except OSError as exc:
        raise SolverError(f"cannot write the HiGHS model file: {exc}") from exc
    try:
        with open(fd, "w", encoding="utf-8") as out:
            problem.write(out, col_lower, col_upper)
        return highs.readModel(path)
    except OSError as exc:
        raise SolverError(f"cannot write the HiGHS model file: {exc}") from exc
    finally:
        os.unlink(path)


class LoadedProblem:
    """One :class:`Problem` read into one HiGHS instance, solved cold
    under changing column bounds.

    The file is written and read once.  Each later :meth:`solve` drops the
    previous solve's basis with ``clearSolver`` and moves only the column
    bounds that differ from the loaded ones, through the binding's scalar
    ``changeColBounds``; so every solve is the cold solve of a freshly
    read model, without the parse.  ``options`` maps HiGHS option names
    to values and is applied in order to a fresh ``HighsOptions`` before
    the model is read.
    """

    def __init__(
        self,
        problem: Problem,
        col_lower: Sequence[float],
        col_upper: Sequence[float],
        options: Mapping[str, Any],
    ):
        if _pin_pending:
            pin_mmap_threshold()
        self.is_mip = problem.is_mip
        self._highs = highs = _h._Highs()
        self._lower, self._upper = list(col_lower), list(col_upper)
        self._ran = False
        #: The outcome every solve returns when HiGHS rejected the options
        #: or the file.
        self._failed: Optional[HighsResult] = None
        highs_options = _h.HighsOptions()
        for key, value in options.items():
            setattr(highs_options, key, value)
        if highs.passOptions(highs_options) == _h.HighsStatus.kError:
            status = highs.getModelStatus()
            self._failed = _result(status, highs.modelStatusToString(status))
        elif _read(highs, problem, col_lower, col_upper) == _h.HighsStatus.kError:
            self._failed = _result(
                _STATUS.kModelError, highs.modelStatusToString(_STATUS.kModelError)
            )

    def solve(self, col_lower: Sequence[float], col_upper: Sequence[float]) -> HighsResult:
        """Solve within the column bounds, as SciPy's ``_highs_wrapper``
        does.

        A problem with any integer column is judged as a MIP: a limit
        status still carries its incumbent when the objective is finite.
        Otherwise only ``kOptimal`` carries a point.
        """
        if self._failed is not None:
            return self._failed
        highs = self._highs
        if self._ran:
            highs.clearSolver()
        self._ran = True
        lower, upper = self._lower, self._upper
        for j, (lo, hi) in enumerate(zip(col_lower, col_upper)):
            if lo != lower[j] or hi != upper[j]:
                highs.changeColBounds(j, lo, hi)
                lower[j], upper[j] = lo, hi
        if highs.run() == _h.HighsStatus.kError:
            return _result(highs.getModelStatus(), highs.modelStatusToString(highs.getModelStatus()))

        model_status = highs.getModelStatus()
        info = highs.getInfo()
        if self.is_mip:
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
            x=solution.col_value,
            fun=info.objective_function_value,
            row_value=solution.row_value,
            mip_gap=info.mip_gap if self.is_mip else None,
            mip_dual_bound=info.mip_dual_bound if self.is_mip else None,
        )

