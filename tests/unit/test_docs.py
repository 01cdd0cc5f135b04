"""Documentation integrity: the docs reference real files and symbols."""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def referenced_paths(markdown: str):
    """Backtick-quoted *.py / *.md paths mentioned in a document."""
    for match in re.finditer(r"`([\w/ .-]+\.(?:py|md))`", markdown):
        yield match.group(1).strip()


class TestFormulationDoc:
    DOC = (REPO / "docs" / "FORMULATION.md").read_text()

    def test_referenced_source_files_exist(self):
        for rel in referenced_paths(self.DOC):
            if not rel.endswith(".py"):
                continue
            # paths are relative to src/repro/ except the bench harness
            candidates = (REPO / "src" / "repro" / rel, REPO / rel)
            assert any(c.exists() for c in candidates), rel

    @pytest.mark.parametrize(
        "dotted",
        [
            "repro.assay.graph.SequencingGraph",
            "repro.contam.necessity._classify",
            "repro.core.schedule_ilp.WashScheduleIlp._add_wash_windows",
            "repro.core.schedule_ilp.WashScheduleIlp._add_integration_vars",
            "repro.core.monolithic.MonolithicWashIlp",
            "repro.core.targets.cluster_requirements",
            "repro.core.pathgen.integration_candidates",
            "repro.units.PhysicalParameters.wash_time_s",
            "repro.ilp.model.Model.add_or_indicator",
            "repro.baselines.dawo.SweepLineReplayer",
            "repro.arch.control.ControlLayer.actuation_table",
            "repro.sim.executor.ScheduleExecutor",
        ],
    )
    def test_cited_symbols_exist(self, dotted):
        import importlib

        parts = dotted.split(".")
        for split in range(len(parts), 1, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
                break
            except ModuleNotFoundError:
                continue
        else:
            pytest.fail(f"no importable prefix in {dotted}")
        for attr in parts[split:]:
            obj = getattr(obj, attr)


class TestReadmeAndDesign:
    def test_readme_references_exist(self):
        text = (REPO / "README.md").read_text()
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/FORMULATION.md"):
            assert name in text
            assert (REPO / name).exists()

    def test_examples_listed_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for match in re.finditer(r"`(\w+\.py)`", text):
            candidate = REPO / "examples" / match.group(1)
            if "examples" in text[: match.start()].rsplit("\n", 3)[-1] or candidate.exists():
                continue
        # Explicit list: every shipped example is mentioned.
        for script in (REPO / "examples").glob("*.py"):
            assert script.name in text, script.name

    def test_license_exists(self):
        assert (REPO / "LICENSE").read_text().startswith("MIT License")


class TestExperimentsTable2:
    """EXPERIMENTS.md's Table II against the metrics a fresh run gives.

    ``tests/data/table2_metrics.json`` pins each benchmark's four DAWO and
    PDW metrics at the config of the pinned Table II digests; a plan
    change must update the pins and, through this test, the doc.
    """

    DOC = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    PINS = json.loads(
        (REPO / "tests" / "data" / "table2_metrics.json").read_text(encoding="utf-8")
    )["metrics"]
    KEYS = ("n_wash", "l_wash_mm", "t_delay_s", "t_assay_s")

    def rows(self):
        """``{benchmark: cells}`` of the Table II rows, Average included."""
        section = self.DOC.split("## Table II", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 10 and cells[0] not in ("Benchmark", "---"):
                rows[cells[0].strip("*")] = cells
        return rows

    @staticmethod
    def improvement(dawo, pdw):
        return 100.0 * (dawo - pdw) / dawo if dawo else 0.0

    def test_every_pinned_benchmark_has_a_row(self):
        assert {f"table2/{name}" for name in self.rows() if name != "Average"} == set(self.PINS)

    def test_cells_match_the_pins(self):
        for name, cells in self.rows().items():
            if name == "Average":
                continue
            pins = self.PINS[f"table2/{name}"]
            for i, key in enumerate(self.KEYS):
                dawo, pdw = (float(v) for v in cells[2 + 2 * i].split("→"))
                assert (dawo, pdw) == (pins["dawo"][key], pins["pdw"][key]), (name, key)
                measured = float(cells[3 + 2 * i].split()[0])
                want = self.improvement(dawo, pdw)
                assert abs(measured - want) <= 0.05 + 1e-9, (name, key, measured, want)

    def test_average_row_matches_the_pins(self):
        cells = self.rows()["Average"]
        for i, key in enumerate(self.KEYS):
            measured = float(cells[3 + 2 * i].strip("*").split()[0])
            want = sum(
                self.improvement(pin["dawo"][key], pin["pdw"][key]) for pin in self.PINS.values()
            ) / len(self.PINS)
            assert abs(measured - want) <= 0.05 + 1e-9, (key, measured, want)


class TestExperimentsFigures:
    """EXPERIMENTS.md's Fig. 4 and Fig. 5 tables against a fresh run.

    ``tests/data/figure_metrics.json`` pins each benchmark's DAWO and PDW
    ``avg_wait_s`` (Fig. 4, two decimals in the doc) and
    ``total_wash_time_s`` (Fig. 5, whole seconds) at the config of the
    pinned Table II digests.
    """

    DOC = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    PINS = json.loads(
        (REPO / "tests" / "data" / "figure_metrics.json").read_text(encoding="utf-8")
    )["metrics"]
    FIGURES = {"## Fig. 4": ("avg_wait_s", "{:.2f}"), "## Fig. 5": ("total_wash_time_s", "{:.0f}")}

    def rows(self, heading):
        """``{benchmark: (dawo, pdw)}`` cells of one figure's table."""
        section = self.DOC.split(heading, 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and len(cells) == 3 and cells[0] not in ("Benchmark", "---"):
                rows[cells[0]] = (cells[1], cells[2])
        return rows

    @pytest.mark.parametrize("heading", sorted(FIGURES))
    def test_every_pinned_benchmark_has_a_row(self, heading):
        assert {f"fig/{name}" for name in self.rows(heading)} == set(self.PINS)

    @pytest.mark.parametrize("heading", sorted(FIGURES))
    def test_cells_match_the_pins(self, heading):
        key, fmt = self.FIGURES[heading]
        for name, cells in self.rows(heading).items():
            pins = self.PINS[f"fig/{name}"]
            want = tuple(fmt.format(pins[method][key]) for method in ("dawo", "pdw"))
            assert cells == want, (heading, name)
