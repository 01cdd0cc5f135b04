"""Unit tests for the free-ordering relaxation and its bound."""

import math

import pytest

from repro.bench import benchmark as bench_spec
from repro.bench import load_benchmark
from repro.contam import ContaminationTracker, NecessityPolicy, wash_requirements
from repro.core import PDWConfig, optimize_washes
from repro.core.monolithic import (
    BoundComparison,
    MonolithicWashIlp,
    _seed_point,
    objective_lower_bound,
)
from repro.core.pathgen import candidate_paths
from repro.core.schedule_ilp import WashScheduleIlp
from repro.core.targets import cluster_requirements
from repro.ilp import SolveStatus
from repro.synth import synthesize


@pytest.fixture(scope="module")
def problem(demo_synthesis):
    chip, baseline = demo_synthesis.chip, demo_synthesis.schedule
    tracker = ContaminationTracker(chip, baseline)
    report = wash_requirements(tracker, demo_synthesis.assay, NecessityPolicy.PDW)
    clusters = cluster_requirements(chip, report.required, max_path_mm=33.0)
    candidates = {
        c.id: candidate_paths(chip, sorted(c.targets), 4) for c in clusters
    }
    return chip, baseline, clusters, candidates


class TestBound:
    def test_relaxation_never_worse(self, problem):
        chip, baseline, clusters, candidates = problem
        cmp = objective_lower_bound(
            chip, baseline, clusters, candidates, PDWConfig(time_limit_s=60)
        )
        assert isinstance(cmp, BoundComparison)
        assert math.isfinite(cmp.relaxed_bound)
        assert cmp.relaxed_bound <= cmp.decomposed_objective + 1e-6
        assert cmp.gap >= -1e-6
        assert 0.0 <= cmp.gap_percent <= 100.0

    def test_the_decomposed_plan_seeds_the_relaxed_model(self, problem):
        # The seed lets the branch-and-bound rung bound the relaxed model
        # from its root; a point the vetting rejects would leave it cold.
        chip, baseline, clusters, candidates = problem
        config = PDWConfig(time_limit_s=60)
        decomposed = WashScheduleIlp(chip, baseline, list(clusters), candidates, config)
        outcome = decomposed.solve()
        relaxed = MonolithicWashIlp(chip, baseline, list(clusters), candidates, config)
        relaxed.ensure_built()
        seed = _seed_point(relaxed, decomposed.last_solution)
        assert seed is not None
        assert seed.objective == pytest.approx(outcome.objective)

    def test_decomposition_gap_is_small_here(self, problem):
        chip, baseline, clusters, candidates = problem
        cmp = objective_lower_bound(
            chip, baseline, clusters, candidates, PDWConfig(time_limit_s=60)
        )
        # On the demo assay the fixed-order decomposition costs < 20 % of
        # the objective (empirically ~0-10 %); a blowup here means the
        # decomposition regressed.
        assert cmp.gap_percent < 20.0


def test_the_bound_holds_where_the_relaxed_incumbent_does_not():
    # IVD at the decomposition bench's config: the free-ordering solve
    # stops within its 1% gap, and its incumbent may land above the
    # decomposed objective.  Its proven dual bound may not.
    spec = bench_spec("IVD")
    synthesis = synthesize(load_benchmark("IVD"), inventory=spec.inventory)
    config = PDWConfig(time_limit_s=60.0)
    tracker = ContaminationTracker(synthesis.chip, synthesis.schedule)
    report = wash_requirements(tracker, synthesis.assay, NecessityPolicy.PDW)
    clusters = cluster_requirements(
        synthesis.chip, report.required, max_path_mm=config.max_wash_path_mm
    )
    candidates = {
        c.id: candidate_paths(synthesis.chip, sorted(c.targets), config.max_candidates)
        for c in clusters
    }
    cmp = objective_lower_bound(
        synthesis.chip, synthesis.schedule, clusters, candidates, config
    )
    assert cmp.relaxed_status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
    assert math.isfinite(cmp.relaxed_bound)
    assert cmp.relaxed_bound <= cmp.decomposed_objective + 1e-6


class TestDelayInvariant:
    def test_pdw_never_repacks_below_baseline(self, demo_synthesis):
        plan = optimize_washes(demo_synthesis, PDWConfig(time_limit_s=30))
        assert plan.t_delay >= 0
        for task in demo_synthesis.schedule:
            if task.id in plan.schedule:
                assert plan.schedule.get(task.id).start >= task.start

    def test_no_merge_variant_nonnegative_delay(self, demo_synthesis):
        plan = optimize_washes(
            demo_synthesis, PDWConfig(time_limit_s=30, merge_clusters=False)
        )
        assert plan.t_delay >= 0
