"""Unit tests for the PDW scheduling ILP on hand-built micro-instances."""

import pytest

from repro.arch import ChipBuilder, DeviceKind
from repro.contam.events import WashRequirement
from repro.core.config import PDWConfig
from repro.core.schedule_ilp import WashScheduleIlp
from repro.core.targets import WashCluster
from repro.errors import WashError
from repro.schedule import Schedule, ScheduledTask, TaskKind


@pytest.fixture
def chip():
    """in1 - a - b - out1 with a side branch in2 - c - b."""
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
def baseline(chip):
    """Injection -> removal -> op, then a later transport reusing 'a'."""
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


def cluster(node="a", source="rm:r1->o1", blocker="tr:r2->o2"):
    return WashCluster("w1", [
        WashRequirement(
            node=node, fluid_type="dye", contaminated_at=4, deadline=8,
            source_task=source, blocking_task=blocker,
        )
    ])


class TestModelConstruction:
    def test_missing_candidates_rejected(self, chip, baseline):
        with pytest.raises(WashError):
            WashScheduleIlp(chip, baseline, [cluster()], {}, PDWConfig())

    def test_solves_and_places_wash_in_window(self, chip, baseline):
        cands = {"w1": [("in1", "a", "b", "out1")]}
        ilp = WashScheduleIlp(
            chip, baseline, [cluster()], cands,
            PDWConfig(enable_integration=False),
        )
        outcome = ilp.solve()
        wash_start = outcome.wash_starts["w1"]
        wash_end = wash_start + outcome.wash_durations["w1"]
        # after the contaminating removal ends...
        rm_end = outcome.starts["rm:r1->o1"] + 2
        assert wash_start >= rm_end
        # ... and before the blocking transport starts.
        assert wash_end <= outcome.starts["tr:r2->o2"]

    def test_precedences_preserved(self, chip, baseline):
        cands = {"w1": [("in1", "a", "b", "out1")]}
        outcome = WashScheduleIlp(
            chip, baseline, [cluster()], cands, PDWConfig()
        ).solve()
        s = outcome.starts
        assert s["rm:r1->o1"] >= s["tr:r1->o1"] + 2
        assert s["op:o1"] >= s["rm:r1->o1"] + 2

    def test_cheapest_candidate_selected(self, chip, baseline):
        short = ("in1", "a", "b", "out1")
        longer = ("in2", "c", "b", "a", "b", "out1")
        cands = {"w1": [longer, short]}
        outcome = WashScheduleIlp(
            chip, baseline, [cluster()], cands, PDWConfig()
        ).solve()
        assert outcome.wash_paths["w1"] == short

    def test_two_washes_sharing_nodes_serialized(self, chip, baseline):
        clusters = [
            cluster(),
            WashCluster("w2", [
                WashRequirement(
                    node="b", fluid_type="dye", contaminated_at=4, deadline=8,
                    source_task="rm:r1->o1", blocking_task="tr:r2->o2",
                )
            ]),
        ]
        path = ("in1", "a", "b", "out1")
        cands = {"w1": [path], "w2": [path]}
        outcome = WashScheduleIlp(
            chip, baseline, clusters, cands, PDWConfig()
        ).solve()
        s1, d1 = outcome.wash_starts["w1"], outcome.wash_durations["w1"]
        s2, d2 = outcome.wash_starts["w2"], outcome.wash_durations["w2"]
        assert s1 + d1 <= s2 or s2 + d2 <= s1

    def test_integration_absorbs_covered_removal(self, chip, baseline):
        # Candidate covers the removal path entirely and the removal's
        # window: ψ should fire, and the removal vanishes from timing.
        cands = {"w1": [("in1", "a", "b", "out1")]}
        outcome = WashScheduleIlp(
            chip, baseline, [cluster()], cands,
            PDWConfig(enable_integration=True),
        ).solve()
        assert outcome.absorbed.get("rm:r1->o1") == "w1"

    def test_integration_disabled_by_config(self, chip, baseline):
        cands = {"w1": [("in1", "a", "b", "out1")]}
        outcome = WashScheduleIlp(
            chip, baseline, [cluster()], cands,
            PDWConfig(enable_integration=False),
        ).solve()
        assert outcome.absorbed == {}

    def test_makespan_reported_via_objective(self, chip, baseline):
        cands = {"w1": [("in1", "a", "b", "out1")]}
        ilp = WashScheduleIlp(chip, baseline, [cluster()], cands, PDWConfig())
        outcome = ilp.solve()
        assert outcome.objective > 0
        assert outcome.status.value in ("optimal", "feasible")
        assert "vars" in outcome.model_stats

    def test_build_time_reported(self, chip, baseline):
        cands = {"w1": [("in1", "a", "b", "out1")]}
        ilp = WashScheduleIlp(chip, baseline, [cluster()], cands, PDWConfig())
        outcome = ilp.solve()
        assert outcome.build_time_s > 0.0
