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
            "repro.ilp.model.Model.add_disjunction",
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


class TestExperimentsAblation:
    """EXPERIMENTS.md's ablation table against the metrics a fresh run gives.

    ``tests/data/ablation_metrics.json`` pins each (benchmark, variant)
    row's four metrics and ψ at the config ``python -m repro.experiments
    ablation`` runs.
    """

    DOC = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    PINS = json.loads(
        (REPO / "tests" / "data" / "ablation_metrics.json").read_text(encoding="utf-8")
    )["metrics"]
    FORMATS = (
        ("n_wash", "{:.0f}"), ("l_wash_mm", "{:.1f}"), ("t_delay_s", "{:.0f}"),
        ("t_assay_s", "{:.0f}"), ("psi", "{}"),
    )

    def rows(self):
        """``{ablation/<benchmark>/<variant>: metric cells}`` of the table."""
        section = self.DOC.split("## Ablations", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and len(cells) == 7 and cells[0] not in ("Benchmark", "---"):
                rows[f"ablation/{cells[0]}/{cells[1]}"] = tuple(cells[2:])
        return rows

    def test_every_pinned_row_is_in_the_doc(self):
        assert set(self.rows()) == set(self.PINS)

    def test_cells_match_the_pins(self):
        for key, cells in self.rows().items():
            want = tuple(fmt.format(self.PINS[key][name]) for name, fmt in self.FORMATS)
            assert cells == want, key


class TestExperimentsRuntime:
    """EXPERIMENTS.md's runtime table is read off a committed ``pdw bench``
    artifact: each cell is a per-benchmark median (or a sum of stage
    medians) in seconds, to three decimals."""

    DOC = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    SECTION = DOC.split("## Runtime", 1)[1].split("\n## ", 1)[0]
    COLUMNS = (
        ("wall_s",), ("synthesis",), ("replay",),
        ("pdw.necessity", "pdw.clusters", "pdw.pathgen"), ("pdw.ilp",), ("highs",),
        ("dawo.necessity", "dawo.clusters", "dawo.sweepline"),
    )

    def artifact(self):
        path = re.search(r"`(docs/bench/[\w.-]+\.json)`", self.SECTION).group(1)
        return json.loads((REPO / path).read_text(encoding="utf-8"))

    @staticmethod
    def median(series, name):
        if name == "wall_s":
            return series["wall_s"]["median"]
        if name == "highs":
            return series["rungs"]["highs"]["median"]
        return series["stages"][name]["median"]

    def rows(self):
        rows = {}
        for line in self.SECTION.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and len(cells) == 8 and cells[0] not in ("Benchmark", "---"):
                rows[cells[0]] = tuple(cells[1:])
        return rows

    def test_the_artifact_is_a_full_cold_matrix(self):
        from repro.bench import BENCHMARKS

        payload = self.artifact()
        assert not payload["quick"]
        assert set(payload["benchmarks"]) == set(BENCHMARKS) == set(self.rows())

    def test_cells_match_the_artifact(self):
        benchmarks = self.artifact()["benchmarks"]
        for name, cells in self.rows().items():
            want = tuple(
                f"{sum(self.median(benchmarks[name], s) for s in column):.3f}"
                for column in self.COLUMNS
            )
            assert cells == want, name


class TestBenchArtifactCitations:
    """Every ``BENCH_*.json`` artifact the documents and CI cite exists at
    the path cited (``BENCH_<git-sha>.json``-style templates aside)."""

    SOURCES = (
        *sorted((REPO / "docs").glob("*.md")),
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        REPO / "README.md",
        REPO / ".github" / "workflows" / "ci.yml",
    )
    CITATION = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*BENCH_\w+\.json)")

    def citations(self):
        return [
            (source.relative_to(REPO), path)
            for source in self.SOURCES
            for path in self.CITATION.findall(source.read_text(encoding="utf-8"))
        ]

    def test_the_documents_cite_artifacts(self):
        assert len(self.citations()) >= 18

    def test_every_cited_artifact_exists(self):
        missing = [(str(src), path) for src, path in self.citations() if not (REPO / path).is_file()]
        assert missing == []
