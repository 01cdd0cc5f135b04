"""Integration tests for the experiment harness (Table II, Fig. 4, Fig. 5)."""

import json
from pathlib import Path

import pytest

from repro.core import PDWConfig
from repro.experiments import (
    ablation_report,
    fig4_report,
    fig5_report,
    table2_report,
)
from repro.experiments.fig4 import fig4_series
from repro.experiments.fig5 import fig5_series
from repro.experiments.runner import run_benchmark, run_suite
from repro.experiments.table2 import table2_rows

SUBSET = ["PCR", "Kinase-act-1"]
CFG = PDWConfig(time_limit_s=60.0)


@pytest.fixture(scope="module")
def runs():
    return run_suite(SUBSET, CFG)


class TestRunner:
    def test_cache_returns_same_object(self):
        a = run_benchmark("PCR", CFG)
        b = run_benchmark("PCR", CFG)
        assert a is b

    def test_sizes_string(self, runs):
        assert runs[0].sizes == "7/5/15"

    def test_wall_time_recorded(self, runs):
        assert all(r.wall_time_s > 0 for r in runs)


class TestTable2:
    def test_rows_carry_measured_and_paper(self, runs):
        rows = table2_rows(runs)
        assert len(rows) == len(SUBSET)
        for row in rows:
            assert set(row.improvements) == {
                "n_wash", "l_wash_mm", "t_delay_s", "t_assay_s",
            }
            assert set(row.paper_improvements) == set(row.improvements)

    def test_rows_match_the_pinned_metrics(self, runs):
        # The pins tests/unit/test_docs.py holds EXPERIMENTS.md to.
        path = Path(__file__).resolve().parents[1] / "data" / "table2_metrics.json"
        pins = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        for row in table2_rows(runs):
            for method in ("dawo", "pdw"):
                want = pins[f"table2/{row.name}"][method]
                assert {k: getattr(row, method)[k] for k in want} == want

    def test_report_renders(self, runs):
        text = table2_report(SUBSET, CFG)
        assert "Table II" in text
        assert "PCR" in text
        assert "Average" in text
        assert "paper Im(%)" in text


class TestFigures:
    def test_fig4_series_shapes(self, runs):
        series = fig4_series(runs)
        assert set(series) == {"DAWO", "PDW"}
        assert len(series["PDW"]) == len(SUBSET)
        for d, p in zip(series["DAWO"], series["PDW"]):
            assert p <= d

    def test_fig5_series_shapes(self, runs):
        series = fig5_series(runs)
        for d, p in zip(series["DAWO"], series["PDW"]):
            assert p <= d

    def test_series_match_the_pinned_metrics(self, runs):
        # The pins tests/unit/test_docs.py holds EXPERIMENTS.md's figures to.
        path = Path(__file__).resolve().parents[1] / "data" / "figure_metrics.json"
        pins = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        for run in runs:
            for method in ("dawo", "pdw"):
                want = pins[f"fig/{run.name}"][method]
                metrics = getattr(run, method).metrics()
                assert {k: metrics[k] for k in want} == want

    def test_fig_reports_render(self, runs):
        assert "Fig. 4" in fig4_report(SUBSET, CFG)
        assert "Fig. 5" in fig5_report(SUBSET, CFG)


class TestAblation:
    def test_report_lists_all_variants(self):
        text = ablation_report(["PCR"], PDWConfig(time_limit_s=40.0))
        for variant in ("full", "no-necessity", "no-integration", "no-merge", "eager"):
            assert variant in text

    def test_full_variant_not_worse_than_ablations(self):
        from repro.experiments.ablation import run_ablation

        plans = run_ablation("PCR", PDWConfig(time_limit_s=40.0))
        full = plans["full"]
        assert full.n_wash <= plans["no-necessity"].n_wash
        assert full.n_wash <= plans["no-merge"].n_wash
        assert full.t_assay <= plans["eager"].t_assay
        assert full.integrated_removals >= plans["no-integration"].integrated_removals
        assert plans["no-integration"].integrated_removals == 0

    def test_the_command_line_plans_at_its_time_limit(self, monkeypatch, capsys):
        from repro.experiments import __main__ as entry

        seen = []
        monkeypatch.setattr(
            entry, "ablation_report", lambda names, base=None: seen.append((names, base)) or ""
        )
        assert entry.main(["ablation", "--benchmarks", "PCR", "--time-limit", "7"]) == 0
        assert seen == [(["PCR"], PDWConfig(time_limit_s=7.0))]

    def test_pcr_matches_the_pinned_metrics(self, monkeypatch):
        # The pins tests/unit/test_docs.py holds EXPERIMENTS.md's ablation
        # table to, at the config `python -m repro.experiments ablation
        # --time-limit 60` runs.
        # They are the full ladder's plans, so a forced rung is cleared: on
        # the branch-and-bound rung alone the no-merge variant finds no
        # incumbent within its 60 s and falls to greedy assembly.
        from repro.experiments.ablation import run_ablation
        from repro.ilp import faults

        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        path = Path(__file__).resolve().parents[1] / "data" / "ablation_metrics.json"
        pins = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        for variant, plan in run_ablation("PCR").items():
            want = pins[f"ablation/PCR/{variant}"]
            metrics = {**plan.metrics(), "psi": plan.integrated_removals}
            assert {k: metrics[k] for k in want} == want


class TestCliModule:
    def test_experiments_main(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--benchmarks", "PCR", "--time-limit", "40"]) == 0
        assert "Table II" in capsys.readouterr().out
