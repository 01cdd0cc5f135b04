"""Decomposition-gap bench.

DESIGN.md fixes the relative order of node-sharing baseline tasks inside
the scheduling MILP.  This bench solves the free-ordering relaxation
(:mod:`repro.core.monolithic`) next to the decomposed model and reports the
gap between the decomposed objective and the relaxation's proven dual
bound, with the relaxed solve's status — the empirical justification for
the design choice.  A ``feasible`` status means the relaxed solve hit its
time limit, so the gap is an upper bound on what the decomposition
concedes, not a measurement of it.

Run with::

    pytest benchmarks/bench_decomposition.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.bench import benchmark as bench_spec
from repro.bench import load_benchmark
from repro.contam import ContaminationTracker, NecessityPolicy, wash_requirements
from repro.core import PDWConfig
from repro.core.monolithic import objective_lower_bound
from repro.core.pathgen import candidate_paths
from repro.core.targets import cluster_requirements
from repro.synth import synthesize

_CFG = PDWConfig(time_limit_s=60.0)


@pytest.mark.parametrize("name", ["PCR", "IVD", "Kinase-act-1"])
def test_decomposition_gap(benchmark, name, capsys):
    spec = bench_spec(name)
    synthesis = synthesize(load_benchmark(name), inventory=spec.inventory)
    tracker = ContaminationTracker(synthesis.chip, synthesis.schedule)
    report = wash_requirements(tracker, synthesis.assay, NecessityPolicy.PDW)
    clusters = cluster_requirements(
        synthesis.chip, report.required, max_path_mm=_CFG.max_wash_path_mm
    )
    candidates = {
        c.id: candidate_paths(synthesis.chip, sorted(c.targets), _CFG.max_candidates)
        for c in clusters
    }

    cmp = benchmark.pedantic(
        lambda: objective_lower_bound(
            synthesis.chip, synthesis.schedule, clusters, candidates, _CFG
        ),
        rounds=1, iterations=1,
    )
    assert cmp.relaxed_bound <= cmp.decomposed_objective + 1e-6
    benchmark.extra_info["gap_percent"] = round(cmp.gap_percent, 2)
    with capsys.disabled():
        print(
            f"\n{name}: decomposed={cmp.decomposed_objective:.2f} "
            f"relaxed-bound={cmp.relaxed_bound:.2f} "
            f"({cmp.relaxed_status.value}) gap={cmp.gap_percent:.2f}%"
        )
