"""Properties of the suite engine: plans, stage records, kernel traffic.

The load-bearing guarantee of :mod:`repro.sched` is that the engine
changes no decision: every plan a suite produces — inline, or forked at
any width — is byte-identical to :func:`run_benchmark`'s, since every
attempt *is* one ``run_benchmark``.  These tests pin that on cold
(cache-bypassing) runs, plus the stage records one attempt journals and
the routing-kernel traffic a suite leaves on each chip.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import PDWConfig
from repro.export import canonical_plan_json

SUITE = ["Kinase-act-1", "PCR"]
PINS = Path(__file__).resolve().parents[1] / "data" / "table2_kernel_counts.json"


def _canonical_rows(runs) -> list:
    """(name, pdw plan bytes, dawo plan bytes) per run, in order."""
    return [
        (run.name, canonical_plan_json(run.pdw), canonical_plan_json(run.dawo))
        for run in runs
    ]


class TestWorkerCountInvariance:
    def test_plans_byte_identical_for_any_worker_count(self):
        """Forked runs at 1, 2 and 8 workers = the inline suite, byte for byte."""
        from repro.experiments.runner import run_suite
        from repro.sched.executor import SuiteExecutor
        from repro.sched.journal import RunBudget

        cfg = PDWConfig(time_limit_s=61.0)
        inline = run_suite(SUITE, cfg, use_cache=False)
        assert inline.ok
        baseline = _canonical_rows(inline.runs)
        assert [name for name, _, _ in baseline] == SUITE

        for workers in (1, 2, 8):
            result = SuiteExecutor(
                budget=RunBudget(timeout_s=600.0), use_cache=False, workers=workers
            ).run(SUITE, cfg)
            assert result.ok
            # Identically ordered rows *and* byte-identical plan JSON.
            assert _canonical_rows(result.runs) == baseline, f"workers={workers} diverged"

    def test_forked_plans_byte_identical_to_run_benchmark(self):
        """Inline and forked suites = run_benchmark, byte for byte."""
        from repro.experiments.runner import run_benchmark, run_suite
        from repro.sched.executor import SuiteExecutor
        from repro.sched.journal import RunBudget

        cfg = PDWConfig(time_limit_s=61.2)
        baseline = _canonical_rows(
            [run_benchmark(name, cfg, use_cache=False) for name in SUITE]
        )
        inline = run_suite(SUITE, cfg, use_cache=False)
        forked = SuiteExecutor(budget=RunBudget(timeout_s=600.0), use_cache=False).run(
            SUITE, cfg
        )
        assert inline.ok and forked.ok
        assert _canonical_rows(inline.runs) == baseline
        assert _canonical_rows(forked.runs) == baseline


class TestStageRecords:
    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_an_attempt_journals_each_stage_once(self, name, tmp_path):
        """One cold attempt journals every stage exactly once, the shared
        replay included, in the order run_benchmark runs them."""
        from repro.baselines.dawo import DAWO_PIPELINE
        from repro.core.stages import PDW_PIPELINE, REPLAY_STAGE
        from repro.sched.executor import SuiteExecutor
        from repro.sched.journal import read_records

        journal = tmp_path / "journal.jsonl"
        result = SuiteExecutor(use_cache=False, journal_path=journal).run(
            [name], PDWConfig(time_limit_s=61.4)
        )
        assert result.ok
        stages = [
            (r["method"], r["stage"]) for r in read_records(journal) if r["event"] == "stage"
        ]
        assert stages == [("bench", "synthesis"), ("bench", "replay")] + [
            (method, stage.name)
            for method, pipeline in (("dawo", DAWO_PIPELINE), ("pdw", PDW_PIPELINE))
            for stage in pipeline
            if stage is not REPLAY_STAGE
        ]
        assert len(stages) == 10


class TestKernelCounts:
    def test_a_suite_leaves_each_chip_at_its_pinned_kernel_counts(self):
        """Benchmarks run one at a time: no plan's end-of-pathgen clear
        evicts another's routing entries, so each chip's kernel traffic is
        exactly what run_benchmark alone pins."""
        from repro.arch.pathkernel import cache_counters
        from repro.experiments.runner import run_suite

        pins = json.loads(PINS.read_text(encoding="utf-8"))["counts"]
        # The pins' config, PDWConfig(time_limit_s=120), is the default.
        result = run_suite(["PCR", "IVD"], use_cache=False)
        assert result.ok
        for run in result.runs:
            want = pins[f"table2/{run.name}"]
            assert cache_counters(run.synthesis.chip) == (want["hits"], want["misses"])
