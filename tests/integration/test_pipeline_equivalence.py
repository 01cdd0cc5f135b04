"""Cache-equivalence and parallel-suite regression tests.

The acceptance bar for the staged pipeline: plans built from cached
artifacts (warm disk cache, shared replay tracker) must be metric-identical
to plans computed from scratch, and the parallel suite runner must return
the same results as the sequential one.
"""

import pytest

from repro.baselines import dawo_plan
from repro.contam import ContaminationTracker
from repro.core import PDWConfig, optimize_washes
from repro.experiments.runner import clear_cache, run_benchmark, run_suite
from repro.pipeline import ArtifactCache

PDW_STAGES = ["replay", "necessity", "clusters", "pathgen", "ilp", "assemble"]


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path)


class TestPdwCacheEquivalence:
    def test_warm_run_metric_identical(self, demo_synthesis, cache):
        cfg = PDWConfig(time_limit_s=30.0)
        cold = optimize_washes(demo_synthesis, cfg, cache=cache)
        warm = optimize_washes(demo_synthesis, cfg, cache=cache)
        assert warm.metrics() == cold.metrics()
        assert [w.path for w in warm.washes] == [w.path for w in cold.washes]
        assert cold.report.cache_hits == 0
        # Everything except the (never-cached) assemble stage is served.
        assert warm.report.cache_hits == len(PDW_STAGES) - 1

    def test_report_exposes_all_stages(self, demo_synthesis, cache):
        plan = optimize_washes(demo_synthesis, PDWConfig(time_limit_s=30.0), cache=cache)
        names = plan.report.stage_names()
        # Presolve, model-build and solver-ladder rung records ride along
        # after the ilp stage.
        assert [
            n
            for n in names
            if not n.startswith(("ilp.rung.", "ilp.build", "ilp.presolve"))
        ] == PDW_STAGES
        assert any(n.startswith("ilp.rung.") for n in names)
        assert "ilp.build" in names
        assert "ilp.presolve" in names
        ilp = plan.report.get("ilp")
        for stat in (
            "solve_time_s",
            "build_time_s",
            "objective",
            "variables",
            "binaries",
            "constraints",
        ):
            assert stat in ilp.counters
        assert plan.notes["stage.ilp.variables"] == ilp.counters["variables"]

    def test_config_change_misses_config_dependent_stages(self, demo_synthesis, cache):
        optimize_washes(demo_synthesis, PDWConfig(time_limit_s=30.0), cache=cache)
        plan = optimize_washes(
            demo_synthesis, PDWConfig(time_limit_s=30.0, beta=0.9), cache=cache
        )
        # replay/necessity/clusters/pathgen don't depend on β; the ILP does.
        assert plan.report.get("replay").cached is True
        assert plan.report.get("ilp").cached is False


class TestDawoSharesArtifacts:
    def test_replay_shared_through_cache(self, demo_synthesis, cache):
        scratch_dawo = dawo_plan(demo_synthesis)
        pdw = optimize_washes(demo_synthesis, PDWConfig(time_limit_s=30.0), cache=cache)
        assert pdw.report.get("replay").cached is False
        cached_dawo = dawo_plan(demo_synthesis, cache=cache)
        # DAWO's replay stage is keyed identically to PDW's, so PDW's
        # artifact is reused — and the plan is unchanged by the sharing.
        assert cached_dawo.report.get("replay").cached is True
        assert cached_dawo.metrics() == scratch_dawo.metrics()

    def test_replay_shared_through_tracker(self, demo_synthesis, demo_tracker):
        scratch = dawo_plan(demo_synthesis)
        shared = dawo_plan(demo_synthesis, tracker=demo_tracker)
        assert shared.metrics() == scratch.metrics()
        rec = shared.report.get("replay")
        assert rec.counters.get("shared") == 1.0
        assert rec.wall_s == 0.0

    def test_pdw_with_shared_tracker_metric_identical(self, demo_synthesis):
        cfg = PDWConfig(time_limit_s=30.0)
        scratch = optimize_washes(demo_synthesis, cfg)
        tracker = ContaminationTracker(demo_synthesis.chip, demo_synthesis.schedule)
        shared = optimize_washes(demo_synthesis, cfg, tracker=tracker)
        assert shared.metrics() == scratch.metrics()


class TestRunnerDiskCache:
    def test_warm_benchmark_run_identical(self, cache):
        cfg = PDWConfig(time_limit_s=55.0)
        cold = run_benchmark("PCR", cfg, cache=cache)
        assert cold.from_cache is False
        clear_cache()  # drop the in-process memo: force the disk path
        warm = run_benchmark("PCR", cfg, cache=cache)
        assert warm.from_cache is True
        assert warm.pdw.metrics() == cold.pdw.metrics()
        assert warm.dawo.metrics() == cold.dawo.metrics()
        assert warm.sizes == cold.sizes
        clear_cache()

    def test_run_report_covers_both_methods(self, cache):
        cfg = PDWConfig(time_limit_s=55.0)
        clear_cache()
        run = run_benchmark("PCR", cfg, cache=cache)
        names = run.report.stage_names()
        assert "synthesis" in names
        assert "replay" in names
        for stage in ("pdw.necessity", "pdw.pathgen", "pdw.ilp", "dawo.sweepline"):
            assert stage in names
        assert "solve_time_s" in run.report.get("pdw.ilp").counters
        clear_cache()


class TestParallelSuite:
    SUBSET = ["PCR", "Kinase-act-1"]
    CFG = PDWConfig(time_limit_s=60.0)

    def test_forked_parallel_matches_sequential(self):
        from repro.sched.executor import SuiteExecutor
        from repro.sched.journal import RunBudget

        seq = run_suite(self.SUBSET, self.CFG, use_cache=False)
        par = SuiteExecutor(
            budget=RunBudget(timeout_s=600.0), use_cache=False, workers=2
        ).run(self.SUBSET, self.CFG)
        assert [r.name for r in par] == [r.name for r in seq]
        for a, b in zip(seq, par):
            assert a.pdw.metrics() == b.pdw.metrics()
            assert a.dawo.metrics() == b.dawo.metrics()
