"""Unit tests for the Fig. 2 preset chip."""

import pytest

from repro.arch import DeviceKind, figure2_chip
from repro.arch.presets import FIGURE2_FLOW_PATHS, figure2_transport_paths


@pytest.fixture(scope="module")
def chip():
    return figure2_chip()


class TestFigure2Topology:
    def test_inventory(self, chip):
        assert len(chip.devices) == 5
        assert chip.flow_ports == ["in1", "in2", "in3", "in4"]
        assert chip.waste_ports == ["out1", "out2", "out3", "out4"]
        assert len(chip.channel_nodes) == 16  # s1..s16

    def test_device_kinds(self, chip):
        assert chip.devices["mixer"].kind is DeviceKind.MIXER
        assert chip.devices["heater"].kind is DeviceKind.HEATER
        assert chip.devices["filter"].kind is DeviceKind.FILTER
        assert {d.name for d in chip.devices_of_kind(DeviceKind.DETECTOR)} == {
            "det1", "det2",
        }

    def test_every_table1_path_is_a_valid_walk(self, chip):
        for name, path in FIGURE2_FLOW_PATHS.items():
            chip.check_path(path), name

    def test_transport_paths_in_order(self, chip):
        paths = figure2_transport_paths()
        assert len(paths) == 9
        assert paths[0] == ("in1", "s2", "filter", "s1", "out2")

    def test_wash_paths_start_flow_end_waste(self, chip):
        for name in ("w1", "w2", "w3"):
            path = FIGURE2_FLOW_PATHS[name]
            assert path[0] in chip.flow_ports
            assert path[-1] in chip.waste_ports

    def test_positions_available_for_rendering(self, chip):
        for node in chip.nodes:
            assert chip.position(node) is not None

    def test_devices_have_two_channel_ends(self, chip):
        for device in chip.devices:
            assert chip.degree(device) == 2, device
