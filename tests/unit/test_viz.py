"""Unit tests for the ASCII chip renderer."""

import pytest

from repro.arch import figure2_chip
from repro.arch.chip import Chip, NodeKind
from repro.arch.device import Device, DeviceKind
from repro.viz import render_chip


@pytest.fixture(scope="module")
def chip():
    return figure2_chip()


class TestRenderChip:
    def test_contains_port_glyphs(self, chip):
        art = render_chip(chip)
        assert "I" in art and "O" in art

    def test_device_glyphs_present(self, chip):
        art = render_chip(chip)
        for glyph in ("M", "H", "D", "F"):
            assert glyph in art

    def test_legend_present(self, chip):
        assert "I=flow port" in render_chip(chip)

    def test_highlight_marks_path(self, chip):
        art = render_chip(chip, highlight=["s3", "s4"])
        assert "*" in art
        assert "*=highlighted" in art

    def test_chip_without_positions_is_placeholder(self):
        nodes = {"in1": NodeKind.FLOW_PORT, "m": NodeKind.DEVICE, "out1": NodeKind.WASTE_PORT}
        channels = [("in1", "m", 1.5), ("m", "out1", 1.5)]
        devices = {"m": Device("m", DeviceKind.MIXER)}
        chip = Chip("bare", nodes, channels, devices, ["in1"], ["out1"])
        assert "no layout coordinates" in render_chip(chip)

    def test_synthesized_chip_renders(self, demo_synthesis):
        art = render_chip(demo_synthesis.chip)
        assert "M" in art  # mixers placed
