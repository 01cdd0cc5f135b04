"""Unit tests for the pdw command-line interface."""

import json

import pytest

from repro.assay import graph_to_json
from repro.cli import main


class TestCliList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "PCR" in out and "Synthetic3" in out


class TestCliRun:
    def test_run_pcr_pdw(self, capsys):
        assert main(["run", "PCR", "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "method:      PDW" in out
        assert "n_wash:" in out

    def test_run_dawo(self, capsys):
        assert main(["run", "PCR", "--method", "dawo"]) == 0
        assert "DAWO" in capsys.readouterr().out

    def test_run_with_gantt_and_chip(self, capsys):
        assert main(["run", "PCR", "--gantt", "--chip", "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "I=flow port" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "NotThere"])


class TestCliCostAndSimulate:
    def test_cost_report(self, capsys):
        assert main(["cost", "PCR", "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "valves" in out
        assert "wash_buffer_ul" in out

    def test_simulate_ok(self, capsys):
        assert main(["simulate", "PCR", "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "execution OK" in out

    def test_simulate_full_event_log(self, capsys):
        assert main(["simulate", "PCR", "--time-limit", "30", "--events"]) == 0
        out = capsys.readouterr().out
        assert "operation_run" in out


class TestCliExport:
    def test_export_plan_json(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["export", "PCR", "--what", "plan", "--time-limit", "30",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "PDW"

    def test_export_actuation_csv(self, capsys):
        assert main(["export", "PCR", "--what", "actuation",
                     "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# valve program")
        assert "tick," in out

    def test_export_svg(self, tmp_path, capsys):
        out = tmp_path / "chip.svg"
        assert main(["export", "PCR", "--what", "svg", "--time-limit", "30",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")


class TestCliAssay:
    def test_optimizes_user_assay_file(self, tmp_path, capsys, demo_assay):
        path = tmp_path / "assay.json"
        path.write_text(graph_to_json(demo_assay))
        assert main(["assay", str(path), "--time-limit", "30"]) == 0
        assert "n_wash:" in capsys.readouterr().out

    def test_optimizes_dsl_assay_file(self, tmp_path, capsys):
        path = tmp_path / "assay.dsl"
        path.write_text(
            "assay t\n"
            "reagent r1 : serum\n"
            "reagent r2 : dye\n"
            "m = mix(r1, r2)\n"
            "d = detect(m)\n"
        )
        assert main(["assay", str(path), "--time-limit", "30"]) == 0
        assert "n_wash:" in capsys.readouterr().out

    def test_malformed_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        # Library errors surface as a one-line message + exit 2, never a
        # traceback.
        assert main(["assay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pdw: error:")

    def test_nan_time_limit_exits_cleanly(self, capsys):
        assert main(["run", "PCR", "--no-cache", "--time-limit", "nan"]) == 2
        assert "time_limit_s must be a number" in capsys.readouterr().err


class _EngineBuilt(Exception):
    """Stops ``pdw suite`` once it has built its engine."""


class TestCliSuiteEngine:
    def test_worker_env_vars_choose_neither_engine_nor_width(self, monkeypatch):
        # The two retired width variables must not come back through the
        # environment: pdw suite forks under its budget at default width.
        from repro.sched import executor

        built = []

        class Recording(executor.SuiteExecutor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)
                raise _EngineBuilt

        monkeypatch.setattr(executor, "SuiteExecutor", Recording)
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "4")
        monkeypatch.setenv("REPRO_SCHED_WORKERS", "2")
        with pytest.raises(_EngineBuilt):
            main(["suite", "PCR", "--no-cache"])
        assert [(ex.workers, ex.budget.forks) for ex in built] == [(None, True)]


class TestCliBenchParser:
    def test_bench_defaults_match_the_bench_module(self):
        # The parser spells out pdw bench's defaults so that `import
        # repro.cli` need not load repro.obs.perf; they must stay perf's.
        import argparse

        from repro.cli import build_parser
        from repro.obs import perf

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {a.dest: a for a in sub.choices["bench"]._actions}
        assert options["iterations"].default == perf.DEFAULT_ITERATIONS
        assert f"one iteration of {perf.QUICK_BENCHMARK} only" in options["quick"].help
