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
from repro.export import canonical_plan_json
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
        assert "cache" not in _origins(cold).values()
        clear_cache()  # drop the in-process memo: force the disk path
        warm = run_benchmark("PCR", cfg, cache=cache)
        assert _origins(warm)["pdw.ilp"] == "cache"
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


def _origins(run) -> dict:
    return {rec.stage: rec.origin for rec in run.report.stages}


#: The stages of a run that no cache key covers: they compute every time.
KEYLESS = {"synthesis", "pdw.assemble"}


class TestWarmRunsReportTheirOwnWork:
    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_a_warm_run_reports_its_own_wall_and_stage_origins(self, name, cache):
        cfg = PDWConfig(time_limit_s=56.0)
        clear_cache()
        cold = run_benchmark(name, cfg, cache=cache)
        clear_cache()  # a new process: only the disk cache is left
        warm = run_benchmark(name, cfg, cache=cache)
        clear_cache()
        assert warm.wall_time_s < cold.wall_time_s
        origins = _origins(warm)
        assert _origins(cold).keys() >= origins.keys() >= KEYLESS
        for stage, origin in origins.items():
            expected = ("computed",) if stage in KEYLESS else ("cache", "shared")
            assert origin in expected, (stage, origin)
        for method in ("pdw", "dawo"):
            assert canonical_plan_json(getattr(warm, method)) == canonical_plan_json(
                getattr(cold, method)
            ), method

    def test_a_warm_suite_adds_no_cache_entry(self, cache):
        cfg = PDWConfig(time_limit_s=57.0)
        clear_cache()
        assert run_suite(["PCR", "IVD"], cfg, cache=cache).ok
        entries = sorted(cache.entries())
        clear_cache()
        warm = run_suite(["PCR", "IVD"], cfg, cache=cache)
        clear_cache()
        assert warm.ok
        assert sorted(cache.entries()) == entries

    def test_a_warm_plan_records_no_solve(self, cache):
        from repro.experiments.runner import plan_one
        from repro.obs import metrics as obs_metrics

        cfg = PDWConfig(time_limit_s=58.0)
        cold = plan_one("PCR", "pdw", cfg, cache)
        assert any(n.startswith("ilp.rung.") for n in cold.report.stage_names())
        obs_metrics.reset()
        warm = plan_one("PCR", "pdw", cfg, cache)
        ilp = warm.report.get("ilp")
        assert ilp.origin == "cache"
        assert not [
            rec.stage for rec in warm.report.stages
            if rec.stage.startswith("ilp.") and rec.origin == "computed"
        ]
        # The earlier solve still shows through the ilp record's counters.
        assert ilp.counters["rungs_tried"] >= 1
        assert ilp.counters["solve_time_s"] == cold.report.get("ilp").counters["solve_time_s"]
        observed = [
            series for series in obs_metrics.registry().as_dict()["series"]
            if series["name"] == "pdw_stage_wall_seconds"
            and series["labels"]["stage"].startswith("ilp")
        ]
        assert observed == []


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
