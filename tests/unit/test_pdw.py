"""Unit tests for the PDW pipeline, its plan object and the verifier."""

import pytest

from repro.assay import Operation, Reagent, SequencingGraph
from repro.contam import contamination_violations
from repro.core import PDWConfig, PathDriverWash, optimize_washes
from repro.core.pdw import verify_plan
from repro.errors import WashError
from repro.schedule import TaskKind
from repro.synth import synthesize


class TestConfig:
    def test_paper_defaults(self):
        cfg = PDWConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (0.3, 0.3, 0.4)

    def test_negative_weight_rejected(self):
        with pytest.raises(WashError):
            PDWConfig(alpha=-1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WashError):
            PDWConfig(alpha=0, beta=0, gamma=0)

    def test_bad_path_mode_rejected(self):
        with pytest.raises(WashError):
            PDWConfig(path_mode="psychic")

    def test_time_limit_positive(self):
        with pytest.raises(WashError):
            PDWConfig(time_limit_s=0)

    @pytest.mark.parametrize(
        "field",
        ["alpha", "beta", "gamma", "time_limit_s", "mip_gap", "max_wash_path_mm",
         "integration_window_s"],
    )
    def test_nan_rejected_in_every_float_field(self, field):
        with pytest.raises(WashError, match="NaN"):
            PDWConfig(**{field: float("nan")})

    @pytest.mark.parametrize(
        "field",
        ["alpha", "beta", "gamma", "mip_gap", "max_wash_path_mm", "integration_window_s"],
    )
    def test_infinity_rejected(self, field):
        with pytest.raises(WashError, match="finite"):
            PDWConfig(**{field: float("inf")})

    def test_infinite_time_limit_means_no_limit(self):
        assert PDWConfig(time_limit_s=float("inf")).time_limit_s == float("inf")

    def test_negative_mip_gap_rejected(self):
        # HiGHS refuses it, and the ladder would silently plan on a later rung.
        with pytest.raises(WashError, match="MIP gap"):
            PDWConfig(mip_gap=-1)
        assert PDWConfig(mip_gap=0).mip_gap == 0

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_wash_path_cap_rejected(self, cap):
        with pytest.raises(WashError, match="wash-path length"):
            PDWConfig(max_wash_path_mm=cap)


class TestPlanStructure:
    def test_solver_reached_optimality(self, demo_pdw_plan):
        assert demo_pdw_plan.solver_status == "optimal"

    def test_schedule_contains_wash_tasks(self, demo_pdw_plan):
        washes = demo_pdw_plan.schedule.tasks(TaskKind.WASH)
        assert len(washes) == demo_pdw_plan.n_wash
        assert demo_pdw_plan.wash_tasks() == [t.id for t in washes]

    def test_wash_paths_are_port_to_port(self, demo_pdw_plan):
        chip = demo_pdw_plan.chip
        for wash in demo_pdw_plan.washes:
            assert wash.path[0] in chip.flow_ports
            assert wash.path[-1] in chip.waste_ports

    def test_wash_covers_its_targets(self, demo_pdw_plan):
        for wash in demo_pdw_plan.washes:
            assert wash.targets <= set(wash.path)

    def test_wash_duration_follows_eq17(self, demo_pdw_plan):
        chip = demo_pdw_plan.chip
        for wash in demo_pdw_plan.washes:
            assert wash.duration == chip.wash_time_s(wash.path)

    def test_absorbed_removals_dropped_from_schedule(self, demo_pdw_plan):
        for wash in demo_pdw_plan.washes:
            for rm_id in wash.absorbed_removals:
                assert rm_id not in demo_pdw_plan.schedule

    def test_plan_is_conflict_and_contamination_free(self, demo_pdw_plan):
        assert demo_pdw_plan.schedule.conflicts() == []
        assert contamination_violations(
            demo_pdw_plan.chip, demo_pdw_plan.schedule
        ) == []

    def test_verify_plan_passes(self, demo_pdw_plan):
        verify_plan(demo_pdw_plan)


class TestMetrics:
    def test_l_wash_sums_path_lengths(self, demo_pdw_plan):
        chip = demo_pdw_plan.chip
        expected = sum(chip.path_length_mm(w.path) for w in demo_pdw_plan.washes)
        assert demo_pdw_plan.l_wash_mm == pytest.approx(expected)

    def test_t_delay_consistent(self, demo_pdw_plan):
        assert demo_pdw_plan.t_delay == (
            demo_pdw_plan.t_assay - demo_pdw_plan.baseline_makespan
        )

    def test_total_wash_time(self, demo_pdw_plan):
        assert demo_pdw_plan.total_wash_time == sum(
            w.duration for w in demo_pdw_plan.washes
        )

    def test_average_waiting_non_negative(self, demo_pdw_plan):
        assert demo_pdw_plan.average_waiting_time >= 0.0

    def test_metrics_mapping_complete(self, demo_pdw_plan):
        m = demo_pdw_plan.metrics()
        assert set(m) == {
            "n_wash", "l_wash_mm", "t_assay_s", "t_delay_s", "avg_wait_s",
            "total_wash_time_s", "integrated_removals",
        }


class TestSemantics:
    def test_wash_inside_its_window(self, demo_pdw_plan, demo_synthesis):
        """Eq. 16 against the re-timed schedule: wash after every source,
        before every blocker."""
        sched = demo_pdw_plan.schedule
        for wash in demo_pdw_plan.washes:
            task = sched.get(f"wash:{wash.id}")
            assert task.start == wash.start

    def test_operations_keep_precedence(self, demo_pdw_plan, demo_synthesis):
        sched = demo_pdw_plan.schedule
        assay = demo_synthesis.assay
        for op in assay.operations:
            for src in assay.inputs_of(op.id):
                if assay.is_reagent(src):
                    continue
                assert (
                    sched.operation_task(src).end
                    <= sched.operation_task(op.id).start
                )

    def test_no_wash_needed_short_circuit(self):
        g = SequencingGraph("clean")
        g.add_reagent(Reagent("r1", "water"))
        g.add_operation(Operation("o1", "detect"), ["r1"])
        plan = optimize_washes(synthesize(g))
        assert plan.n_wash == 0
        assert plan.solver_status == "no-wash-needed"
        assert plan.t_delay == 0

    def test_pdw_not_worse_than_dawo(self, demo_pdw_plan, demo_dawo_plan):
        assert demo_pdw_plan.n_wash <= demo_dawo_plan.n_wash
        assert demo_pdw_plan.l_wash_mm <= demo_dawo_plan.l_wash_mm
        assert demo_pdw_plan.t_assay <= demo_dawo_plan.t_assay

    def test_exact_path_mode_runs(self, demo_synthesis):
        plan = PathDriverWash(
            demo_synthesis,
            PDWConfig(time_limit_s=30, path_mode="exact", max_candidates=3),
        ).run()
        assert plan.solver_status in ("optimal", "feasible")
        verify_plan(plan)

    def test_notes_record_necessity_breakdown(self, demo_pdw_plan):
        notes = demo_pdw_plan.notes
        assert notes["requirements"] > 0
        assert notes["necessity_events"] >= notes["requirements"]
