"""Unit tests for chip JSON (de)serialization."""

import pytest

from repro.arch import figure2_chip
from repro.arch.io import chip_from_dict, chip_from_json, chip_to_dict, chip_to_json
from repro.errors import ArchitectureError


class TestRoundTrip:
    def test_figure2_round_trip(self):
        original = figure2_chip()
        restored = chip_from_json(chip_to_json(original))
        assert restored.name == original.name
        assert sorted(restored.nodes) == sorted(original.nodes)
        assert len(restored.edges()) == len(original.edges())
        assert restored.flow_ports == original.flow_ports
        assert restored.waste_ports == original.waste_ports

    def test_devices_preserved(self):
        restored = chip_from_json(chip_to_json(figure2_chip()))
        assert restored.devices["mixer"].kind.value == "mixer"
        assert restored.devices["det1"].kind.value == "detector"

    def test_parameters_preserved(self):
        original = figure2_chip()
        restored = chip_from_json(chip_to_json(original))
        assert restored.parameters == original.parameters

    def test_positions_preserved(self):
        original = figure2_chip()
        restored = chip_from_json(chip_to_json(original))
        for node in original.nodes:
            assert restored.position(node) == original.position(node)

    def test_synthesized_chip_round_trip(self, demo_synthesis):
        original = demo_synthesis.chip
        restored = chip_from_json(chip_to_json(original))
        assert restored.stats() == original.stats()

    def test_custom_edge_length_survives(self):
        data = chip_to_dict(figure2_chip())
        data["channels"][0] = data["channels"][0][:2] + [9.5]
        restored = chip_from_dict(data)
        a, b = data["channels"][0][:2]
        assert restored.edge_length_mm(a, b) == 9.5


class TestErrors:
    def test_malformed_json(self):
        with pytest.raises(ArchitectureError):
            chip_from_json("{oops")

    def test_non_object(self):
        with pytest.raises(ArchitectureError):
            chip_from_json("[]")

    def test_missing_fields(self):
        with pytest.raises(ArchitectureError):
            chip_from_dict({"name": "x"})

    def test_unknown_kind_rejected(self):
        data = chip_to_dict(figure2_chip())
        data["nodes"][0]["kind"] = "wormhole"
        with pytest.raises(ArchitectureError):
            chip_from_dict(data)

    def test_invalid_chip_still_validated(self):
        # Deserialization runs the normal Chip validation (no ports, etc.).
        with pytest.raises(ArchitectureError):
            chip_from_dict({
                "name": "bad",
                "nodes": [{"id": "a", "kind": "channel"}],
                "channels": [],
            })
