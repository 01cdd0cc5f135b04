"""Benchmark ILP models and ``scipy.optimize`` reference solves for them.

:func:`scheduling_model` builds a Table II benchmark's PDW scheduling ILP as
the ILP stage builds it.  :func:`milp_reference` and
:func:`linprog_reference` solve a model the way the HiGHS rungs called
``scipy.optimize`` before they handed SciPy's bundled binding an EMS file
(:mod:`repro.ilp.highs`); they are the oracle that hand-off is held to.
numpy, ``scipy.optimize`` and ``scipy.sparse`` are test-only imports.
"""

from __future__ import annotations

import numpy as np


def scheduling_model(name, config=None):
    """The PDW scheduling ILP of a Table II benchmark, built, not solved."""
    from repro.bench import benchmark, load_benchmark
    from repro.core import PDWConfig
    from repro.core.schedule_ilp import WashScheduleIlp
    from repro.core.stages import PDW_PIPELINE, PDWContext
    from repro.synth import synthesize

    synthesis = synthesize(load_benchmark(name), inventory=benchmark(name).inventory)
    ctx = PDWContext(synthesis=synthesis, config=config or PDWConfig())
    for stage in PDW_PIPELINE:
        if stage.provides == "outcome":
            break
        stage.apply(ctx, stage.compute(ctx))
    ilp = WashScheduleIlp(
        synthesis.chip, synthesis.schedule, ctx.clusters, ctx.candidates, ctx.config
    )
    ilp.ensure_built()
    return ilp.model


def scipy_rows(model):
    """The model's stored entries as the ``scipy.sparse.csr_matrix`` SciPy
    builds from them as triplets, in its canonical order — an oracle that
    does not trust the stored rows to be column-sorted."""
    from scipy import sparse

    row_ids = np.repeat(np.arange(model.num_rows), np.diff(np.asarray(model._indptr)))
    return sparse.csr_matrix(
        (np.asarray(model._vals), (row_ids, np.asarray(model._cols))),
        shape=(model.num_rows, len(model.variables)),
    )


def milp_reference(model, options):
    """``scipy.optimize.milp`` on ``model`` under a
    :class:`~repro.ilp.solver.HighsOptions`, called as the solver called it."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c = np.zeros(len(model.variables))
    for var, coef in model.objective.terms.items():
        c[var.index] += coef
    if model.objective_sense == "max":
        c = -c
    integrality = np.array(
        [1 if v.is_integral else 0 for v in model.variables], dtype=np.int8
    )
    bounds = Bounds(
        np.array([v.lb for v in model.variables]), np.array([v.ub for v in model.variables])
    )
    rows = model.row_matrix()
    constraints = LinearConstraint(scipy_rows(model), np.asarray(rows.lo), np.asarray(rows.hi))

    milp_options = {"disp": False}
    if options.time_limit_s is not None:
        milp_options["time_limit"] = float(options.time_limit_s)
    if options.mip_gap is not None:
        milp_options["mip_rel_gap"] = float(options.mip_gap)
    if options.node_limit is not None:
        milp_options["node_limit"] = int(options.node_limit)
    if not options.presolve:
        milp_options["presolve"] = False
    return milp(
        c=c,
        integrality=integrality,
        bounds=bounds,
        constraints=() if model.num_rows == 0 else constraints,
        options=milp_options,
    )


def linprog_reference(model, c, lower, upper):
    """``scipy.optimize.linprog(method="highs")`` on one relaxation of
    ``model``, with the rows split into ``A_ub``/``A_eq`` as
    branch-and-bound split them."""
    from scipy.optimize import linprog

    from repro.ilp.model import SENSE_CODES

    rows = model.row_matrix()
    sense, rhs = np.asarray(rows.sense), np.asarray(rows.rhs)
    a = scipy_rows(model)
    is_eq = sense == SENSE_CODES["=="]
    ub, eq = np.flatnonzero(~is_eq), np.flatnonzero(is_eq)
    sign = np.where(sense[ub] == SENSE_CODES[">="], -1.0, 1.0)
    a_ub = b_ub = a_eq = b_eq = None
    if len(ub):
        a_ub = a[ub]
        a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
        b_ub = sign * rhs[ub]
    if len(eq):
        a_eq = a[eq]
        b_eq = rhs[eq]
    return linprog(
        np.asarray(c), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=list(zip(lower, upper)), method="highs",
    )
