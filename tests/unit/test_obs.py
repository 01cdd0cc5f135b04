"""The observability layer: trace spans, metrics registry, bench compare."""

import json
import time

import pytest

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import perf
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import Tracer


# ---------------------------------------------------------------------------
# trace spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_indices(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("mid") as sp:
                sp.set("k", 7)
                with tr.span("inner"):
                    pass
            with tr.span("sibling"):
                pass
        names = {rec.name: rec for rec in tr.spans}
        assert names["outer"].parent is None
        assert names["mid"].parent == names["outer"].index
        assert names["inner"].parent == names["mid"].index
        assert names["sibling"].parent == names["outer"].index
        assert names["mid"].attrs == {"k": 7}
        assert all(rec.status == "ok" for rec in tr.spans)
        assert all(rec.duration_s >= 0.0 for rec in tr.spans)

    def test_exception_marks_status_and_propagates(self):
        tr = Tracer(enabled=True)
        with pytest.raises(KeyError):
            with tr.span("outer"):
                with tr.span("boom"):
                    raise KeyError("x")
        names = {rec.name: rec for rec in tr.spans}
        assert names["boom"].status == "error:KeyError"
        assert names["outer"].status == "error:KeyError"
        # The stack unwound: a new span is a root again.
        with tr.span("after"):
            pass
        assert {r.name: r for r in tr.spans}["after"].parent is None

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("ghost") as sp:
            sp.set("ignored", 1)  # the shared no-op handle
        assert tr.spans == []

    def test_record_span_for_async_regions(self):
        tr = Tracer(enabled=True)
        t0 = time.perf_counter()
        rec = tr.record_span("suite.attempt", t0 - 1.0, t0, status="fail", attempt=2)
        assert rec.status == "fail"
        assert rec.attrs == {"attempt": 2}
        assert rec.duration_s == pytest.approx(1.0)
        assert tr.spans[-1] is rec

    def test_chrome_trace_is_loadable_json(self):
        tr = Tracer(enabled=True)
        with tr.span("outer", assay="PCR"):
            with tr.span("inner"):
                pass
        payload = json.loads(tr.chrome_trace(config_digest="abc123"))
        assert payload["otherData"]["config_digest"] == "abc123"
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["name"] == "process_name"
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for event in complete:
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float) or isinstance(event["ts"], int)
        (outer,) = [e for e in complete if e["name"] == "outer"]
        assert outer["args"] == {"assay": "PCR"}

    def test_render_tree_indents_children(self):
        tr = Tracer(enabled=True)
        with tr.span("root"):
            with tr.span("child"):
                pass
        text = tr.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_clear_restarts_epoch(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.clear()
        assert tr.spans == []
        with tr.span("b"):
            pass
        assert tr.spans[0].start_s < 1.0  # fresh epoch, not seconds in


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(5.0)
        g.inc(1.0)
        assert g.value == 6.0
        g.absorb({"value": 2.0})
        assert g.value == 2.0

    def test_histogram_bucket_edges(self):
        h = Histogram(bounds=(0.1, 1.0, 10.0))
        h.observe(0.1)    # exactly on a bound -> that bucket (le semantics)
        h.observe(0.1000001)
        h.observe(10.0)
        h.observe(10.1)   # past the last bound -> overflow
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(20.3000001)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.1))

    def test_histogram_absorb_requires_identical_bounds(self):
        h = Histogram(bounds=(0.1, 1.0))
        with pytest.raises(ValueError):
            h.absorb({"bounds": [0.2, 1.0], "counts": [0, 0, 0], "sum": 0, "count": 0})


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("pdw_x_total", stage="ilp")
        b = reg.counter("pdw_x_total", stage="ilp")
        c = reg.counter("pdw_x_total", stage="replay")
        assert a is b and a is not c
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("pdw_x_total")
        with pytest.raises(TypeError):
            reg.gauge("pdw_x_total")

    def test_snapshot_merge_across_processes(self):
        # Two "workers" build registries independently; snapshots travel
        # through JSON (as over the supervisor pipe / journal) and merge.
        merged = MetricsRegistry()
        for worker in range(2):
            reg = MetricsRegistry()
            reg.counter("pdw_runs_total", outcome="ok").inc(2)
            reg.gauge("pdw_last_n").set(worker)
            reg.histogram("pdw_wall_seconds").observe(0.02)
            snap = json.loads(json.dumps(reg.as_dict()))
            merged.merge(snap)
        assert merged.counter("pdw_runs_total", outcome="ok").value == 4.0
        assert merged.gauge("pdw_last_n").value == 1.0  # last write wins
        hist = merged.histogram("pdw_wall_seconds")
        assert hist.count == 2
        assert hist.counts[DEFAULT_BUCKETS.index(0.05)] == 2

    def test_merge_snapshots_helper(self):
        reg = MetricsRegistry()
        reg.counter("pdw_a_total").inc()
        snap = reg.as_dict()
        out = merge_snapshots([snap, snap])
        assert out.counter("pdw_a_total").value == 2.0

    def test_from_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("pdw_a_total", k="v").inc(3)
        clone = MetricsRegistry.from_dict(reg.as_dict())
        assert clone.as_dict() == reg.as_dict()


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("pdw_runs_total", outcome="ok").inc(3)
        reg.gauge("pdw_workers").set(2)
        text = reg.render_prometheus()
        assert "# TYPE pdw_runs_total counter" in text
        assert 'pdw_runs_total{outcome="ok"} 3' in text
        assert "# TYPE pdw_workers gauge" in text
        assert "pdw_workers 2" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("pdw_wall_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = reg.render_prometheus()
        assert 'pdw_wall_seconds_bucket{le="0.1"} 1' in text
        assert 'pdw_wall_seconds_bucket{le="1"} 2' in text
        assert 'pdw_wall_seconds_bucket{le="+Inf"} 3' in text
        assert "pdw_wall_seconds_sum 5.55" in text
        assert "pdw_wall_seconds_count 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("pdw_odd_total", msg='say "hi"\nback\\slash').inc()
        text = reg.render_prometheus()
        assert r'msg="say \"hi\"\nback\\slash"' in text


class TestGlobalRegistry:
    def test_reset_clears_global(self):
        obs_metrics.reset()
        obs_metrics.registry().counter("pdw_tmp_total").inc()
        assert len(obs_metrics.registry()) == 1
        obs_metrics.reset()
        assert len(obs_metrics.registry()) == 0


# ---------------------------------------------------------------------------
# bench compare
# ---------------------------------------------------------------------------


def _bench_payload(wall=1.0, ilp=0.5, pathgen=0.2, rung=0.4, build=0.1,
                   presolve=0.01, clusters=0.3, dawo_clusters=0.25, **over):
    payload = {
        "schema": perf.BENCH_SCHEMA,
        "git_sha": "deadbee",
        "created_unix": 0.0,
        "iterations": 3,
        "quick": False,
        "config_digest": "cfg",
        "time_limit_s": 120.0,
        "hot_paths": list(perf.DEFAULT_HOT_PATHS),
        "benchmarks": {
            "PCR": {
                "wall_s": {"median": wall, "p95": wall, "samples": [wall]},
                "stages": {
                    "pdw.ilp": {"median": ilp, "p95": ilp, "samples": [ilp]},
                    "pdw.pathgen": {
                        "median": pathgen, "p95": pathgen, "samples": [pathgen]
                    },
                    "pdw.ilp.build": {
                        "median": build, "p95": build, "samples": [build]
                    },
                    "pdw.ilp.presolve": {
                        "median": presolve, "p95": presolve,
                        "samples": [presolve],
                    },
                    "pdw.clusters": {
                        "median": clusters, "p95": clusters, "samples": [clusters]
                    },
                    "dawo.clusters": {
                        "median": dawo_clusters, "p95": dawo_clusters,
                        "samples": [dawo_clusters],
                    },
                },
                "rungs": {"highs": {"median": rung, "p95": rung, "samples": [rung]}},
            }
        },
    }
    payload.update(over)
    return payload


class TestStatistics:
    def test_median(self):
        assert perf.median([]) == 0.0
        assert perf.median([3.0, 1.0, 2.0]) == 2.0
        assert perf.median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_p95_nearest_rank(self):
        assert perf.p95([]) == 0.0
        assert perf.p95([1.0]) == 1.0
        samples = [float(i) for i in range(1, 21)]  # 1..20
        assert perf.p95(samples) == 19.0  # ceil(0.95*20)=19 -> 19th value


class TestCompareBench:
    def test_no_regression_within_threshold(self):
        report = perf.compare_bench(
            _bench_payload(wall=1.1), _bench_payload(wall=1.0), threshold_pct=25.0
        )
        assert report.ok
        assert "PCR.wall_s" in report.compared
        assert report.skipped == []

    def test_regression_past_threshold(self):
        report = perf.compare_bench(
            _bench_payload(wall=2.0, ilp=0.5),
            _bench_payload(wall=1.0, ilp=0.5),
            threshold_pct=25.0,
        )
        assert not report.ok
        (reg,) = report.regressions
        assert reg.path == "PCR.wall_s"
        assert reg.pct == pytest.approx(100.0)
        assert "REGRESSED" in report.render()

    def test_clustering_stages_are_gated_by_default(self):
        assert {"pdw.clusters", "dawo.clusters"} <= set(perf.DEFAULT_HOT_PATHS)
        report = perf.compare_bench(
            _bench_payload(clusters=0.6, dawo_clusters=0.5),
            _bench_payload(),
            threshold_pct=25.0,
        )
        assert [r.path for r in report.regressions] == [
            "PCR.pdw.clusters", "PCR.dawo.clusters",
        ]

    def test_older_baseline_keeps_its_own_hot_paths(self):
        older = _bench_payload(
            hot_paths=["wall_s", "pdw.ilp", "pdw.pathgen", "pdw.ilp.build"]
        )
        report = perf.compare_bench(
            _bench_payload(clusters=9.0, dawo_clusters=9.0), older, threshold_pct=25.0
        )
        assert report.ok
        assert not any("clusters" in path for path in report.compared)

    def test_rung_hot_path_is_gated(self):
        report = perf.compare_bench(
            _bench_payload(rung=1.0),
            _bench_payload(rung=0.1, hot_paths=["highs"]),
            threshold_pct=25.0,
        )
        assert [r.path for r in report.regressions] == ["PCR.highs"]

    def test_missing_series_is_skipped_not_failed(self):
        baseline = _bench_payload(hot_paths=["wall_s", "pdw.renamed_stage"])
        report = perf.compare_bench(_bench_payload(), baseline, threshold_pct=25.0)
        assert report.ok
        assert "PCR.pdw.renamed_stage" in report.skipped

    def test_schema_mismatch_raises(self):
        bad = _bench_payload(schema="pdw-bench/0")
        with pytest.raises(ReproError):
            perf.compare_bench(_bench_payload(), bad)
        with pytest.raises(ReproError):
            perf.compare_bench(bad, _bench_payload())

    def test_load_bench_errors_cleanly(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ReproError):
            perf.load_bench(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            perf.load_bench(bad)


class TestBenchCli:
    """``pdw bench --compare`` exit codes on canned fixtures."""

    @pytest.fixture
    def canned_run(self, monkeypatch):
        def fake_run_bench(names=None, config=None, iterations=3, quick=False,
                           progress=None, sched_workers=None):
            return perf.BenchResult(_bench_payload(wall=1.0))

        monkeypatch.setattr(perf, "run_bench", fake_run_bench)

    def test_compare_exit_0_on_ok(self, tmp_path, canned_run, capsys):
        from repro.cli import main

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(_bench_payload(wall=1.0)))
        out = tmp_path / "out.json"
        code = main(["bench", "--out", str(out), "--compare", str(baseline)])
        assert code == 0
        assert out.exists()
        assert "result: OK" in capsys.readouterr().out

    def test_compare_exit_1_on_regression(self, tmp_path, canned_run, capsys):
        from repro.cli import main

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(_bench_payload(wall=0.1)))
        out = tmp_path / "out.json"
        code = main(["bench", "--out", str(out), "--compare", str(baseline)])
        assert code == 1
        assert "REGRESSION PCR.wall_s" in capsys.readouterr().out


class TestBenchSamples:
    def test_every_sample_builds_its_model_cold(self, monkeypatch):
        """No bench sample reuses an earlier sample's built ILP model."""
        from repro.experiments import runner

        runs = []
        cold_run = runner.run_benchmark

        def recording_run(*args, **kwargs):
            runs.append(cold_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(runner, "run_benchmark", recording_run)
        perf.run_bench(["PCR"], iterations=2)
        assert len(runs) == 2
        assert [run.pdw.report.get("ilp.build") is not None for run in runs] == [True, True]
