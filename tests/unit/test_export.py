"""Unit tests for the exporters (plan JSON, actuation CSV, SVG)."""

import json
import xml.etree.ElementTree as ET

from repro.arch import figure2_chip
from repro.arch.presets import FIGURE2_FLOW_PATHS
from repro.export import actuation_program, plan_to_dict, plan_to_json
from repro.viz.svg import render_svg


class TestPlanJson:
    def test_round_trips_through_json(self, demo_pdw_plan):
        data = json.loads(plan_to_json(demo_pdw_plan))
        assert data["method"] == "PDW"
        assert data["metrics"]["n_wash"] == demo_pdw_plan.n_wash

    def test_tasks_complete(self, demo_pdw_plan):
        data = plan_to_dict(demo_pdw_plan)
        assert len(data["tasks"]) == len(demo_pdw_plan.schedule)
        kinds = {t["kind"] for t in data["tasks"]}
        assert "wash" in kinds and "operation" in kinds

    def test_washes_reference_paths_and_targets(self, demo_pdw_plan):
        data = plan_to_dict(demo_pdw_plan)
        for wash in data["washes"]:
            assert wash["path"][0].startswith("in")
            assert set(wash["targets"]) <= set(wash["path"])

    def test_flow_tasks_have_paths_operations_do_not(self, demo_pdw_plan):
        for task in plan_to_dict(demo_pdw_plan)["tasks"]:
            if task["kind"] == "operation":
                assert task["path"] is None
            else:
                assert len(task["path"]) >= 2


class TestActuationProgram:
    def test_csv_structure(self, demo_synthesis):
        csv = actuation_program(demo_synthesis.chip, demo_synthesis.schedule)
        lines = csv.splitlines()
        assert lines[0].startswith("# valve program")
        header = lines[2].split(",")
        assert header[0] == "tick"
        n_valves = len(header) - 1
        body = lines[3:]
        assert len(body) >= demo_synthesis.schedule.makespan - 1
        for row in body:
            cells = row.split(",")
            assert len(cells) == n_valves + 1
            assert set(cells[1:]) <= {"O", "C"}

    def test_some_valves_open_during_flows(self, demo_synthesis):
        csv = actuation_program(demo_synthesis.chip, demo_synthesis.schedule)
        assert "O" in csv.split("\n", 3)[3]


class TestSvg:
    def test_valid_xml(self):
        svg = render_svg(figure2_chip())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_devices_and_ports(self):
        svg = render_svg(figure2_chip())
        assert "mixer" in svg
        assert svg.count("<polygon") == 4   # 4 flow ports
        assert "#e06666" in svg             # waste port fill

    def test_path_overlay_drawn(self):
        svg = render_svg(figure2_chip(), paths=[FIGURE2_FLOW_PATHS["w3"]])
        assert "<polyline" in svg

    def test_multiple_overlays_get_distinct_colors(self):
        svg = render_svg(
            figure2_chip(),
            paths=[FIGURE2_FLOW_PATHS["w1"], FIGURE2_FLOW_PATHS["w2"]],
        )
        assert "#1f77b4" in svg and "#d62728" in svg

    def test_chip_without_positions(self):
        from repro.arch.chip import Chip, NodeKind

        nodes = {"in1": NodeKind.FLOW_PORT, "out1": NodeKind.WASTE_PORT}
        chip = Chip("bare", nodes, [("in1", "out1", 1.5)], {}, ["in1"], ["out1"])
        svg = render_svg(chip)
        assert "no layout coordinates" in svg
        ET.fromstring(svg)

    def test_labels_can_be_disabled(self):
        svg = render_svg(figure2_chip(), labels=False)
        assert "<text" not in svg
