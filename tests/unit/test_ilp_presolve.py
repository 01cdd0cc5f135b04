"""Unit tests for the ILP presolve analysis on a hand-built micro-instance."""

import pytest

from repro.arch import ChipBuilder, DeviceKind
from repro.contam.events import WashRequirement
from repro.core.config import PDWConfig
from repro.core.monolithic import MonolithicWashIlp
from repro.core.schedule_ilp import WashScheduleIlp
from repro.core.targets import WashCluster
from repro.ilp import faults as ilp_faults
from repro.ilp import presolve
from repro.schedule import Schedule, ScheduledTask, TaskKind


@pytest.fixture
def chip():
    builder = ChipBuilder("micro")
    builder.add_flow_port("in1").add_flow_port("in2")
    builder.add_waste_port("out1")
    builder.add_device("mixer", DeviceKind.MIXER)
    builder.add_junctions("a", "b", "c")
    builder.connect("in1", "a", "b", "out1")
    builder.connect("in2", "c", "b")
    builder.add_channel("a", "mixer")
    return builder.build()


def task(tid, kind, start, duration, path=None, device=None, op_id=None,
         fluid="f", edge=None):
    return ScheduledTask(
        id=tid, kind=kind, start=start, duration=duration, path=path,
        device=device, op_id=op_id, fluid_type=fluid, edge=edge,
    )


@pytest.fixture
def baseline():
    return Schedule([
        task("tr:r1->o1", TaskKind.TRANSPORT, 0, 2, path=("in1", "a", "mixer"),
             edge=("r1", "o1"), fluid="dye"),
        task("rm:r1->o1", TaskKind.REMOVAL, 2, 2, path=("in1", "a", "b", "out1"),
             edge=("r1", "o1"), fluid="dye"),
        task("op:o1", TaskKind.OPERATION, 4, 3, device="mixer", op_id="o1",
             fluid="mix-out"),
        task("tr:r2->o2", TaskKind.TRANSPORT, 8, 2, path=("in2", "c", "b"),
             edge=("r2", "o2"), fluid="ink"),
    ])


def cluster():
    return WashCluster("w1", [
        WashRequirement(
            node="a", fluid_type="dye", contaminated_at=4, deadline=8,
            source_task="rm:r1->o1", blocking_task="tr:r2->o2",
        )
    ])


SHORT = ("in1", "a", "b", "out1")
LONGER = ("in1", "a", "b", "c", "b", "out1")


def _analyze(chip, baseline, candidates, horizon=40, **cfg):
    return presolve.analyze(
        chip, list(baseline.tasks()), [cluster()], candidates,
        PDWConfig(**cfg), horizon,
    )


class TestAnalyze:
    def test_bound_propagation_matches_baseline_chain(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [SHORT]})
        # est: the precedence chain forces tr -> rm -> op; an absorbable
        # removal contributes zero minimum duration.
        assert info.est["tr:r1->o1"] == 0
        assert info.est["rm:r1->o1"] == 2
        assert info.est["op:o1"] == 4
        assert info.est["tr:r2->o2"] == 8
        # lst never crosses est, and the chain tightens it below horizon.
        for tid in info.est:
            assert info.est[tid] <= info.lst[tid] < info.horizon

    def test_absorbable_removal_detected(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [SHORT]})
        assert "rm:r1->o1" in info.absorbable
        off = _analyze(chip, baseline, {"w1": [SHORT]}, enable_integration=False)
        assert not off.absorbable

    def test_wash_window_from_source_and_blocker(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [SHORT]})
        # Absorbable source removal: the wash may start at the removal's
        # est (the removal can shrink to nothing under absorption).
        assert info.wash_est["w1"] == info.est["rm:r1->o1"]
        assert info.wash_lst["w1"] <= info.lst["tr:r2->o2"] - info.min_wash["w1"]

    def test_provable_orders_cover_the_chain(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [SHORT]})
        # The contaminating removal and its transport precede the wash;
        # the blocking transport follows it.
        assert "rm:r1->o1" in info.before_wash["w1"]
        assert "tr:r1->o1" in info.before_wash["w1"]
        assert "tr:r2->o2" in info.after_wash["w1"]

    def test_dominated_candidate_dropped_only_under_beta(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [LONGER, SHORT]})
        assert info.survivors["w1"] == [1]
        assert info.dropped_candidates == 1
        # With beta = 0 the length term cannot break ties, so the rule
        # must not fire (an alternate optimum could pick the longer path).
        info0 = _analyze(chip, baseline, {"w1": [LONGER, SHORT]}, beta=0.0)
        assert info0.survivors["w1"] == [0, 1]
        assert info0.dropped_candidates == 0

    def test_t_floor_is_a_valid_makespan_bound(self, chip, baseline):
        info = _analyze(chip, baseline, {"w1": [SHORT]})
        assert info.t_floor >= info.est["tr:r2->o2"] + 2
        assert info.t_floor <= info.horizon

    def test_trivial_info_proves_nothing(self, baseline):
        info = presolve.trivial_info(40, list(baseline.tasks()), ["w1"])
        assert info.redundant_pairs == set()
        assert info.before_wash == {}
        assert info.wash_est["w1"] == 0
        assert info.wash_lst["w1"] == 40
        assert info.t_floor == 0


class TestBuilderIntegration:
    def test_presolved_model_is_strictly_smaller(self, chip, baseline):
        cands = {"w1": [SHORT, LONGER]}
        on = WashScheduleIlp(chip, baseline, [cluster()], cands,
                             PDWConfig(presolve="on"))
        off = WashScheduleIlp(chip, baseline, [cluster()], cands,
                              PDWConfig(presolve="off"))
        on.ensure_built()
        off.ensure_built()
        assert on.model.num_rows < off.model.num_rows
        assert on.presolve_info is not None
        assert off.presolve_info is None
        assert on.presolve_info.dropped_constraints > 0

    def test_monolithic_model_never_presolves(self, chip, baseline):
        # The relaxation frees the baseline order, so fixed-order
        # deductions would be unsound there.
        ilp = MonolithicWashIlp(chip, baseline, [cluster()],
                                {"w1": [SHORT]}, PDWConfig())
        assert ilp.presolve_enabled is False

    def test_env_override_disables_presolve(self, chip, baseline, monkeypatch):
        monkeypatch.setenv(ilp_faults.ENV_PRESOLVE, "off")
        ilp = WashScheduleIlp(chip, baseline, [cluster()],
                              {"w1": [SHORT]}, PDWConfig())
        assert ilp.presolve_enabled is False
        # An explicit config pin beats the environment.
        pinned = WashScheduleIlp(chip, baseline, [cluster()],
                                 {"w1": [SHORT]}, PDWConfig(presolve="off"))
        assert pinned.presolve_enabled is False


class TestEnvironmentToken:
    def test_presolve_env_lands_in_token(self, monkeypatch):
        monkeypatch.delenv(ilp_faults.ENV_PRESOLVE, raising=False)
        base = ilp_faults.environment_token()
        monkeypatch.setenv(ilp_faults.ENV_PRESOLVE, "off")
        assert ilp_faults.environment_token() != base
        assert "presolve=off" in ilp_faults.environment_token()

    def test_resolve_presolve_prefers_explicit_config(self, monkeypatch):
        monkeypatch.setenv(ilp_faults.ENV_PRESOLVE, "off")
        assert ilp_faults.resolve_presolve("on") == "off"
        monkeypatch.delenv(ilp_faults.ENV_PRESOLVE)
        assert ilp_faults.resolve_presolve("off") == "off"
        assert ilp_faults.resolve_presolve("on") == "on"
