"""Unit tests for candidate wash-path generation."""

import pytest

from repro.arch import figure2_chip
from repro.arch.routing import is_simple
from repro.core.pathgen import candidate_paths
from repro.errors import WashError


@pytest.fixture(scope="module")
def chip():
    return figure2_chip()


class TestCandidatePaths:
    def test_all_candidates_cover_targets(self, chip):
        targets = ["s12", "s13", "s16"]
        for path in candidate_paths(chip, targets):
            assert set(targets) <= set(path)

    def test_port_to_port_structure(self, chip):
        for path in candidate_paths(chip, ["s3", "s4"]):
            assert path[0] in chip.flow_ports
            assert path[-1] in chip.waste_ports

    def test_sorted_by_length(self, chip):
        paths = candidate_paths(chip, ["s6"], max_candidates=5)
        lengths = [chip.path_length_mm(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_respects_max_candidates(self, chip):
        assert len(candidate_paths(chip, ["s6"], max_candidates=2)) <= 2

    def test_simple_candidates_preferred(self, chip):
        for path in candidate_paths(chip, ["s15", "s16"], max_candidates=6):
            assert is_simple(path)

    def test_reproduces_paper_candidate_discussion(self, chip):
        # Section II-C: washing s16-s12-s13 — out4 gives the short path.
        paths = candidate_paths(chip, ["s16", "s12", "s13"], max_candidates=6)
        best = paths[0]
        assert best == ("in4", "s13", "s12", "s16", "s15", "s11", "out4")

    def test_device_target_is_traversed(self, chip):
        paths = candidate_paths(chip, ["heater"])
        assert all("heater" in p for p in paths)

    def test_empty_targets_rejected(self, chip):
        with pytest.raises(WashError):
            candidate_paths(chip, [])

