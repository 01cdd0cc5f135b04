"""Unit tests for the report renderers."""

from repro.experiments.reporting import pct, render_series, render_table


class TestRenderTable:
    def test_alignment_and_rule(self):
        text = render_table(["name", "value"], [["a", "1"], ["long-name", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width
        assert set(lines[1]) <= {"-", " "}

    def test_cells_right_justified(self):
        text = render_table(["h"], [["x"]])
        assert "h" in text.splitlines()[0]

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert len(text.splitlines()) == 2


class TestRenderSeries:
    def test_bars_scale_to_peak(self):
        text = render_series(
            "T", ["x"], [("A", [10.0]), ("B", [5.0])], unit="s", bar_width=10
        )
        bar_a = text.splitlines()[1].split("|")[1]
        bar_b = text.splitlines()[2].split("|")[1]
        assert len(bar_a) == 10
        assert len(bar_b) == 5

    def test_zero_values_have_no_bar(self):
        text = render_series("T", ["x"], [("A", [0.0])], unit="s")
        assert text.splitlines()[1].endswith("|")

    def test_title_first_line(self):
        assert render_series("My Figure", [], [], "s").splitlines()[0] == "My Figure"


class TestPct:
    def test_two_decimals(self):
        assert pct(33.1) == "33.10"
        assert pct(0) == "0.00"


class TestRoutingCacheLine:
    def _run(self, hits, misses):
        from types import SimpleNamespace

        from repro.pipeline import RunReport

        rep = RunReport(label="x")
        rep.record(
            "pdw.pathgen",
            wall_s=0.1,
            counters={
                "routing_cache_hits": float(hits),
                "routing_cache_misses": float(misses),
            },
        )
        return SimpleNamespace(report=rep)

    def test_aggregates_across_runs(self):
        from repro.experiments.timings import routing_cache_line

        line = routing_cache_line([self._run(90, 10), self._run(10, 90)])
        assert line == "Routing cache: 100 hits / 100 misses (50.0% hit rate)\n"

    def test_silent_without_counters(self):
        from types import SimpleNamespace

        from repro.experiments.timings import routing_cache_line
        from repro.pipeline import RunReport

        empty = SimpleNamespace(report=RunReport(label="y"))
        assert routing_cache_line([empty]) == ""
