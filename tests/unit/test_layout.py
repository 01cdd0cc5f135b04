"""Unit tests for layout generation."""

import pytest

from repro.arch import NodeKind
from repro.arch.device import Device, DeviceKind
from repro.errors import SynthesisError
from repro.synth.layout import ArchSpec, generate_layout


def devices(n):
    return [Device(f"mixer{i}", DeviceKind.MIXER) for i in range(1, n + 1)]


class TestArchSpec:
    def test_needs_ports(self):
        with pytest.raises(SynthesisError):
            ArchSpec(flow_ports=0)
        with pytest.raises(SynthesisError):
            ArchSpec(waste_ports=0)


class TestGenerateLayout:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 18])
    def test_scales_with_device_count(self, n):
        chip = generate_layout(devices(n))
        assert len(chip.devices) == n
        assert len(chip.nodes) > n

    def test_empty_device_list_rejected(self):
        with pytest.raises(SynthesisError):
            generate_layout([])

    def test_port_counts(self):
        chip = generate_layout(devices(4), ArchSpec(flow_ports=3, waste_ports=5))
        assert len(chip.flow_ports) == 3
        assert len(chip.waste_ports) == 5

    def test_devices_have_exactly_two_channel_ends(self):
        chip = generate_layout(devices(6))
        for name in chip.devices:
            assert chip.degree(name) == 2

    def test_ports_on_chip_boundary(self):
        chip = generate_layout(devices(4))
        xs = [chip.position(n)[0] for n in chip.nodes]
        ys = [chip.position(n)[1] for n in chip.nodes]
        for port in chip.flow_ports + chip.waste_ports:
            x, y = chip.position(port)
            assert x in (min(xs), max(xs)) or y in (min(ys), max(ys))

    def test_network_connected_and_validated(self):
        # Chip.__init__ validates connectivity; construction succeeding is
        # the assertion.
        chip = generate_layout(devices(7))
        assert chip.stats()["nodes"] == len(chip.nodes)

    def test_deterministic(self):
        a = generate_layout(devices(5))
        b = generate_layout(devices(5))
        assert sorted(a.nodes) == sorted(b.nodes)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_mixed_device_kinds(self):
        mixed = [
            Device("mixer1", DeviceKind.MIXER),
            Device("heater1", DeviceKind.HEATER),
            Device("detector1", DeviceKind.DETECTOR),
        ]
        chip = generate_layout(mixed)
        assert chip.kind_of("heater1") is NodeKind.DEVICE
