"""Unit tests for per-stage instrumentation and the pipeline runner."""

from repro.pipeline import ArtifactCache, PipelineRun, RunReport, Stage, StageBase
from repro.pipeline import cache as cache_module


class CountingStage(StageBase):
    """A toy stage that counts its own compute() invocations."""

    name = "toy"

    def __init__(self, cacheable: bool = True):
        self.cacheable = cacheable
        self.computed = 0

    def key(self, ctx):
        return ("toy-key", ctx["seed"]) if self.cacheable else None

    def compute(self, ctx):
        self.computed += 1
        return {"value": ctx["seed"] * 2}

    def counters(self, artifact):
        return {"value": float(artifact["value"])}


class TestRunReport:
    def test_record_and_query(self):
        report = RunReport(label="t")
        report.record("a", wall_s=0.5, counters={"n": 3.0})
        report.record("b", wall_s=0.25, cached=True)
        assert report.stage_names() == ["a", "b"]
        assert report.get("a").counters == {"n": 3.0}
        assert report.get("missing") is None
        assert report.total_wall_s == 0.75
        assert report.cache_hits == 1

    def test_flat_keys(self):
        report = RunReport()
        report.record("ilp", wall_s=1.0, cached=False, counters={"solve_time_s": 0.9})
        flat = report.flat()
        assert flat["stage.ilp.wall_s"] == 1.0
        assert flat["stage.ilp.cached"] == 0.0
        assert flat["stage.ilp.solve_time_s"] == 0.9

    def test_extend_with_prefix(self):
        child = RunReport(label="pdw")
        child.record("replay", wall_s=0.1)
        parent = RunReport(label="bench")
        parent.extend(child, prefix="pdw.")
        assert parent.stage_names() == ["pdw.replay"]
        # Records are copied, not aliased.
        child.stages[0].counters["x"] = 1.0
        assert parent.get("pdw.replay").counters == {}

    def test_render_contains_stages_and_total(self):
        report = RunReport(label="demo")
        report.record("replay", wall_s=0.01, counters={"events": 4.0})
        text = report.render()
        assert "demo" in text
        assert "replay" in text
        assert "events=4" in text
        assert "total" in text

    def test_as_dict_shape(self):
        report = RunReport(label="x")
        report.record("a", wall_s=0.2, cached=True, detail="fine")
        data = report.as_dict()
        assert data["label"] == "x"
        assert data["cache_hits"] == 1
        assert data["stages"][0]["detail"] == "fine"


class TestPipelineRun:
    def test_stage_protocol(self):
        assert isinstance(CountingStage(), Stage)

    def test_cold_then_warm(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage = CountingStage()
        ctx = {"seed": 21}

        cold = PipelineRun(label="cold", cache=cache)
        a = cold.run_stage(stage, ctx)
        warm = PipelineRun(label="warm", cache=cache)
        b = warm.run_stage(stage, ctx)

        assert a == b == {"value": 42}
        assert stage.computed == 1
        assert cold.report.get("toy").cached is False
        warm_rec = warm.report.get("toy")
        assert warm_rec.cached is True
        assert warm_rec.origin == "cache"
        # Cache hits record the lookup time, not 0.0, so the timings
        # report can show (and exclude) it honestly.
        assert warm_rec.counters["value"] == 42.0
        assert warm_rec.counters["cache_lookup_s"] >= 0.0
        assert warm_rec.wall_s > 0.0

    def test_key_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage = CountingStage()
        run = PipelineRun(cache=cache)
        run.run_stage(stage, {"seed": 1})
        run.run_stage(stage, {"seed": 2})
        assert stage.computed == 2

    def test_salt_change_invalidates(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        stage = CountingStage()
        monkeypatch.setattr(cache_module, "_code_salt", "old-source")
        PipelineRun(cache=cache).run_stage(stage, {"seed": 5})
        PipelineRun(cache=cache).run_stage(stage, {"seed": 5})
        assert stage.computed == 1
        monkeypatch.setattr(cache_module, "_code_salt", "edited-source")
        run = PipelineRun(cache=cache)
        run.run_stage(stage, {"seed": 5})
        assert stage.computed == 2
        assert run.report.get("toy").cached is False

    def test_uncacheable_stage_always_computes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage = CountingStage(cacheable=False)
        run = PipelineRun(cache=cache)
        run.run_stage(stage, {"seed": 3})
        run.run_stage(stage, {"seed": 3})
        assert stage.computed == 2
        assert cache.stats() == (0, 0)

    def test_no_cache_still_instrumented(self):
        stage = CountingStage()
        run = PipelineRun(label="nocache", cache=None)
        run.run_stage(stage, {"seed": 7})
        assert stage.computed == 1
        assert run.report.get("toy").counters == {"value": 14.0}

    def test_provided_records_shared_stage(self):
        run = PipelineRun(label="shared")
        run.provided("replay", {"events": 9.0})
        rec = run.report.get("replay")
        assert rec.cached is True
        assert rec.wall_s == 0.0
        assert rec.counters == {"events": 9.0, "shared": 1.0}

    def test_timed_adhoc_step(self):
        run = PipelineRun(label="adhoc")
        result = run.timed("synthesis", lambda: 123, counters=lambda r: {"r": float(r)})
        assert result == 123
        rec = run.report.get("synthesis")
        assert rec.cached is False
        assert rec.counters == {"r": 123.0}
        assert rec.wall_s >= 0.0
