"""The HiGHS binding against ``scipy.optimize`` as the oracle.

Both solver rungs hand SciPy's bundled HiGHS binding an EMS file
(:mod:`repro.ilp.highs`).  HiGHS must read back exactly what ``milp`` and
``linprog(method="highs")`` gave it for the same model, and so return
exactly what they returned: the same status and message, a bit-identical
``x``, the same objective and MIP gap.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.errors import SolverError
from repro.ilp import LinExpr, Model, highs, solver
from repro.ilp.branch_bound import BranchAndBoundSolver
from repro.ilp.solver import HighsOptions
from tests.ilpmodels import linprog_reference, milp_reference, scheduling_model, scipy_rows

BENCHMARKS = ["PCR", "IVD", "Kinase-act-1", "Kinase-act-2", "Synthetic1"]


@pytest.fixture(scope="module")
def models():
    return {}


def _model(models, name):
    if name not in models:
        models[name] = scheduling_model(name)
    return models[name]


def assert_same_as_milp(model, options):
    got = highs.run(*solver._milp_arrays(model), solver._highs_options(options))
    want = milp_reference(model, options)
    assert got.status == want.status
    assert got.message == want.message
    if want.x is None:
        assert got.x is None
    else:
        assert got.x is not None and np.array_equal(got.x, want.x)
    assert got.fun == want.fun
    assert got.mip_gap == want.mip_gap
    return got


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmark_models_solve_as_milp_solved_them(models, name):
    got = assert_same_as_milp(_model(models, name), HighsOptions(time_limit_s=120))
    assert got.status == 0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_rows_reach_highs_in_scipys_layout(models, name):
    model = _model(models, name)
    rows = model.row_matrix()
    csr = scipy_rows(model)
    np.testing.assert_array_equal(rows.indptr, csr.indptr)
    np.testing.assert_array_equal(rows.indices, csr.indices)
    np.testing.assert_array_equal(rows.data, csr.data)

    from scipy.sparse import csc_array

    csc = csc_array(csr)
    a = solver._milp_arrays(model)[0].a
    np.testing.assert_array_equal(a.start, csc.indptr)
    np.testing.assert_array_equal(a.index, csc.indices)
    np.testing.assert_array_equal(a.value, csc.data)
    assert a.num_row == csc.shape[0]


def test_row_activities_sum_as_the_sparse_product_does(models):
    model = _model(models, "IVD")
    x = np.random.default_rng(0).normal(size=len(model.variables))
    got = model.row_matrix().activities(x)
    assert np.array_equal(got, scipy_rows(model) @ x)


def test_column_wise_keeps_explicit_zeros():
    from scipy.sparse import csc_array, csr_matrix

    indptr, cols, data = [0, 2, 3], [0, 2, 1], [0.0, 2.0, 3.0]
    a = highs.column_wise(indptr, cols, data, 3)
    csc = csc_array(csr_matrix((data, cols, indptr), shape=(2, 3)))
    np.testing.assert_array_equal(a.start, csc.indptr)
    np.testing.assert_array_equal(a.index, csc.indices)
    np.testing.assert_array_equal(a.value, csc.data)


def test_ems_file_reads_back_as_the_problem(models, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    problem, lower, upper = solver._milp_arrays(_model(models, "IVD"))
    upper[0] = float("inf")  # written as 1e300, read back as infinite
    h = highs._h._Highs()
    h.setOptionValue("output_flag", False)
    assert highs._read(h, problem, lower, upper) == highs._h.HighsStatus.kOk
    assert list(tmp_path.iterdir()) == []  # the file is gone once read
    lp = h.getLp()
    for got, want in [
        (lp.col_cost_, problem.c),
        (lp.col_lower_, lower),
        (lp.col_upper_, upper),
        (lp.row_lower_, problem.row_lower),
        (lp.row_upper_, problem.row_upper),
        (lp.a_matrix_.start_, problem.a.start),
        (lp.a_matrix_.index_, problem.a.index),
        (lp.a_matrix_.value_, problem.a.value),
    ]:
        assert np.array_equal(np.asarray(got), np.asarray(want))
    integral = [int(t) for t in lp.integrality_]
    assert [j for j, t in enumerate(integral) if t] == list(problem.integer_columns)
    assert np.isinf(lp.col_upper_[0]) and np.isinf(lp.row_lower_).any()


def test_unwritable_model_file_is_a_solver_error(models, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    model = _model(models, "PCR")
    with pytest.raises(SolverError, match="cannot write the HiGHS model file"):
        highs.run(*solver._milp_arrays(model), solver._highs_options(HighsOptions()))
    with pytest.raises(SolverError, match="cannot write the HiGHS model file"):
        BranchAndBoundSolver(time_limit_s=60).solve(model)


def test_branch_and_bound_renders_the_problem_once(models, monkeypatch):
    writes, solves = [], []
    write, solve = highs.Problem.write, highs.LoadedProblem.solve

    def counting_write(problem, *args):
        writes.append(problem)
        write(problem, *args)

    def counting_solve(lp, *args):
        solves.append(lp)
        return solve(lp, *args)

    monkeypatch.setattr(highs.Problem, "write", counting_write)
    monkeypatch.setattr(highs.LoadedProblem, "solve", counting_solve)
    sol = BranchAndBoundSolver(time_limit_s=600).solve(_model(models, "PCR"))
    assert sol.status.value == "optimal"
    assert len(writes) == 1 and len(solves) > 10
    assert all(lp is solves[0] for lp in solves)


def _infeasible():
    m = Model()
    b = m.add_binary_var("b")
    m.add_constr(LinExpr.from_any(b) >= 2)
    m.set_objective(b)
    return m


def _unbounded():
    m = Model()
    x = m.add_integer_var("x", 0, float("inf"))
    y = m.add_continuous_var("y")
    m.add_constr(x - y <= 3)
    m.set_objective(x + y, sense="max")
    return m


def _no_rows():
    m = Model()
    x = m.add_integer_var("x", 1, 5)
    y = m.add_continuous_var("y", 0, 2)
    m.set_objective(x - y)
    return m


def _continuous():
    m = Model()
    x = m.add_continuous_var("x", 1, 5)
    y = m.add_continuous_var("y", 0, 4)
    m.add_constr(x + y >= 3)
    m.set_objective(2 * x + y)
    return m


@pytest.mark.parametrize(
    "build, options, status",
    [
        (_infeasible, HighsOptions(), 2),
        (_unbounded, HighsOptions(), 4),  # presolve cannot tell which
        (_unbounded, HighsOptions(presolve=False), 3),
        (_no_rows, HighsOptions(), 0),
        (_continuous, HighsOptions(), 0),
    ],
    ids=["infeasible", "unbounded", "unbounded-presolve-off", "no-rows", "pure-lp"],
)
def test_edge_models_solve_as_milp_solved_them(build, options, status):
    assert assert_same_as_milp(build(), options).status == status


@pytest.mark.parametrize(
    "options, status, has_x",
    [
        (HighsOptions(time_limit_s=0.0), 1, False),  # limit before any incumbent
        (HighsOptions(node_limit=0, mip_gap=1e-9, presolve=False), 4, False),
        (HighsOptions(node_limit=1, mip_gap=1e-9), 0, True),
        (HighsOptions(presolve=False), 0, True),
    ],
    ids=["time-limit-no-incumbent", "node-limit-0", "node-limit-1", "presolve-off"],
)
def test_limits_and_presolve_off_as_milp(models, options, status, has_x):
    got = assert_same_as_milp(_model(models, "PCR"), options)
    assert got.status == status
    assert (got.x is not None) == has_x


def test_time_limit_without_incumbent_is_an_error_solution(models):
    sol = solver.solve(_model(models, "PCR"), time_limit_s=0.0)
    assert not sol.status.has_solution
    assert "Time limit reached" in sol.message


def test_branch_and_bound_relaxations_match_linprog(models, monkeypatch):
    model = _model(models, "PCR")
    objectives, calls = [], []
    standard_form = BranchAndBoundSolver._standard_form
    solve_lp = BranchAndBoundSolver._solve_lp

    def recording_form(model, sign):
        out = standard_form(model, sign)
        objectives.append(out[1])
        return out

    def recording(lp, rhs, n_ub, lower, upper):
        out = solve_lp(lp, rhs, n_ub, lower, upper)
        calls.append((list(lower), list(upper), out))
        return out

    monkeypatch.setattr(BranchAndBoundSolver, "_standard_form", staticmethod(recording_form))
    monkeypatch.setattr(BranchAndBoundSolver, "_solve_lp", staticmethod(recording))
    sol = BranchAndBoundSolver(time_limit_s=600).solve(model)
    assert sol.status.value == "optimal"
    assert len(calls) > 10
    assert any(out is None for *_, out in calls)  # an infeasible node, too
    (c,) = objectives
    for lower, upper, out in calls:
        want = linprog_reference(model, c, lower, upper)
        assert want.success == (out is not None)
        if out is not None:
            assert out[0] == want.fun
            assert np.array_equal(out[1], want.x)


def test_binding_is_shared_with_scipy_optimize():
    import scipy.optimize._highspy._core as scipy_core

    assert highs._load_binding() is highs._h is scipy_core
    assert sys.modules[highs.BINDING] is highs._h


def test_missing_binding_names_file_and_floor(monkeypatch):
    import importlib.util

    monkeypatch.delitem(sys.modules, highs.BINDING)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(SolverError) as info:
        highs._load_binding()
    message = str(info.value)
    assert "scipy/optimize/_highspy/_core" in message.replace("\\", "/")
    assert f"SciPy >= {highs.SCIPY_FLOOR}" in message


class _Libc:
    """A stand-in for ``ctypes.CDLL(None)`` that records ``mallopt``."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1


class _NoMallopt:
    """A C library without ``mallopt``."""


def _failing_mallopt(calls):
    def mallopt(param, value):
        raise TypeError("mallopt() takes exactly 2 arguments")

    lib = _Libc(calls)
    lib.mallopt = mallopt
    return lib


def _cdll(make):
    calls = []

    def cdll(name):
        calls.append(("CDLL", name))
        return make(calls)

    return cdll, calls


def _raise_oserror(calls):
    raise OSError("dlopen failed")


@pytest.mark.parametrize(
    "make",
    [_Libc, lambda calls: _NoMallopt(), _failing_mallopt, _raise_oserror],
    ids=["mallopt", "no-mallopt", "mallopt-raises", "cdll-raises"],
)
def test_the_first_solve_of_a_process_pins_the_mmap_threshold_once(models, monkeypatch, make):
    import ctypes

    cdll, calls = _cdll(make)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(highs, "_pin_pending", True)
    model = _model(models, "PCR")
    for _ in range(2):
        assert solver.solve(model, time_limit_s=120).status.value == "optimal"
    assert BranchAndBoundSolver(time_limit_s=120).solve(model).status.value == "optimal"
    assert calls[0] == ("CDLL", None)
    assert [call for call in calls if call[0] == "CDLL"] == [("CDLL", None)]
    if make is _Libc:
        assert calls[1:] == [("mallopt", -3, 128 * 1024)]
    assert not highs._pin_pending


def test_a_process_that_takes_the_pin_over_never_pins_in_a_solve(models, monkeypatch):
    import ctypes

    cdll, calls = _cdll(_Libc)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(highs, "_pin_pending", True)
    highs.leave_pin_to_caller()
    assert solver.solve(_model(models, "PCR"), time_limit_s=120).status.value == "optimal"
    assert calls == []
    highs.pin_mmap_threshold()
    assert calls == [("CDLL", None), ("mallopt", -3, 128 * 1024)]
