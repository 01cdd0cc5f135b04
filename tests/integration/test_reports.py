"""Integration tests for the auxiliary experiment reports."""

from dataclasses import replace

import pytest

from repro.arch.pathkernel import kernel_for
from repro.bench import benchmark, load_benchmark
from repro.core import PathDriverWash, PDWConfig, optimize_washes
from repro.experiments import pareto
from repro.experiments.necessity_stats import necessity_report, necessity_rows
from repro.experiments.pareto import DEFAULT_SWEEP, pareto_points, pareto_report
from repro.export import canonical_plan_json
from repro.synth import synthesize

SUBSET = ["PCR", "Kinase-act-1"]


class TestNecessityStats:
    @pytest.fixture(scope="class")
    def rows(self):
        return necessity_rows(SUBSET)

    def test_classification_partitions_events(self, rows):
        for row in rows:
            assert (
                row.required + row.type1 + row.type2 + row.type3 + row.consumed
                == row.events
            )

    def test_minority_of_events_require_wash(self, rows):
        """The paper's Section II-A claim, quantified."""
        for row in rows:
            assert row.required_pct < 50.0

    def test_report_renders(self):
        text = necessity_report(SUBSET)
        assert "Total" in text
        assert "req %" in text


class TestParetoSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return pareto_points("PCR", base=PDWConfig(time_limit_s=40.0))

    def test_all_sweep_points_solved(self, points):
        assert len(points) == 4

    def test_length_only_minimizes_length(self, points):
        by_label = {p.label: p for p in points}
        assert by_label["length-only"].l_wash_mm <= by_label["time-only"].l_wash_mm

    def test_time_only_minimizes_time(self, points):
        by_label = {p.label: p for p in points}
        assert by_label["time-only"].t_assay <= by_label["length-only"].t_assay

    def test_sweep_equals_cold_plans_and_routes_once(self, monkeypatch):
        """Every sweep point is the plan a standalone cold run computes."""
        plans = []

        class Recording(PathDriverWash):
            def sweep(self, weights, verify=True):
                plans.extend(super().sweep(weights, verify))
                return plans

        monkeypatch.setattr(pareto, "PathDriverWash", Recording)
        base = PDWConfig(time_limit_s=40.0)
        pareto_points("PCR", base=base)
        assert len(plans) == len(DEFAULT_SWEEP)
        sweep_misses = kernel_for(plans[0].chip).cache_misses
        assert [p.report.get("pathgen").origin for p in plans] == [
            "computed", "shared", "shared", "shared"
        ]
        for (_, alpha, beta, gamma), plan in zip(DEFAULT_SWEEP, plans):
            synthesis = synthesize(
                load_benchmark("PCR"), inventory=benchmark("PCR").inventory
            )
            cold = optimize_washes(
                synthesis, replace(base, alpha=alpha, beta=beta, gamma=gamma)
            )
            assert canonical_plan_json(plan) == canonical_plan_json(cold)
            # The whole sweep routed exactly as much as one cold plan.
            assert kernel_for(synthesis.chip).cache_misses == sweep_misses

    def test_report_renders(self):
        text = pareto_report("PCR", base=PDWConfig(time_limit_s=40.0))
        assert "paper" in text
        assert "Objective sweep" in text
