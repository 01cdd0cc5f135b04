"""The suite engine, inline and forked: stage records, retries, resume, CLI.

The companion of tests/integration/test_suite_execution.py, at the level
of what one benchmark attempt journals: the inline executor, and (where
a test says so) the same attempt inside a budgeted benchmark's forked
child.  Chaos-driven tests pin a unique ``PDWConfig`` per test for the
same reason documented there: the in-process memo ignores armed stage
faults, so a memo hit from an earlier test would bypass the injection
point.
"""

from __future__ import annotations

from repro.baselines.dawo import DAWO_PIPELINE
from repro.cli import main as cli_main
from repro.core import PDWConfig
from repro.core.stages import PDW_PIPELINE
from repro.pipeline import ArtifactCache
from repro.sched import journal as sched_journal
from repro.sched.executor import SuiteExecutor
from repro.sched.journal import RunBudget

#: Stage records one cold ``run_benchmark`` journals: synthesis, the
#: replay both methods share, and every other stage of each pipeline.
STAGES_PER_RUN = 2 + (len(PDW_PIPELINE) - 1) + (len(DAWO_PIPELINE) - 1)

SUITE = ["PCR", "Kinase-act-1"]
QUICK_RETRY = dict(retries=1, backoff_base_s=0.01, backoff_cap_s=0.05)


def _executor(tmp_path, **kwargs):
    cache = kwargs.pop("cache", None) or ArtifactCache(tmp_path / "store")
    journal = kwargs.pop("journal_path", tmp_path / "journal.jsonl")
    return SuiteExecutor(cache=cache, journal_path=journal, **kwargs), cache


def _stages(records, benchmark, stage=None):
    return [
        r for r in records
        if r["event"] == "stage" and r["benchmark"] == benchmark
        and (stage is None or r["stage"] == stage)
    ]


class TestSuiteExecutor:
    def test_all_success_journals_every_stage(self, tmp_path):
        ex, _ = _executor(tmp_path)
        result = ex.run(SUITE, PDWConfig(time_limit_s=61.5))
        assert result.ok
        assert [run.name for run in result.runs] == SUITE
        records = sched_journal.read_records(ex.journal_path)
        for name in SUITE:
            assert len(_stages(records, name)) == STAGES_PER_RUN
        assert [(r["event"], r["benchmark"]) for r in records if r["event"] != "stage"] == [
            ("attempt", "PCR"), ("success", "PCR"),
            ("attempt", "Kinase-act-1"), ("success", "Kinase-act-1"),
        ]
        assert result.metrics_path == ex.journal_path.parent / "metrics.json"

    def test_a_crashed_benchmark_fails_whole_and_its_sibling_completes(
        self, tmp_path, stage_fault
    ):
        stage_fault("ilp:crash@PCR")
        ex, _ = _executor(tmp_path)
        result = ex.run(SUITE, PDWConfig(time_limit_s=62.0))
        (failure,) = result.failures
        assert (failure.name, failure.kind, failure.attempts) == ("PCR", "crash", 1)
        (run,) = result.runs
        assert run.name == "Kinase-act-1"
        records = sched_journal.read_records(ex.journal_path)
        # PCR stopped at its ILP: nothing after it ran, nothing was cancelled.
        assert [r["stage"] for r in _stages(records, "PCR")][-2:] == ["clusters", "pathgen"]
        assert {r["event"] for r in records} == {"attempt", "stage", "failure", "success"}

    def test_retry_reruns_the_benchmark_from_the_stage_cache(self, tmp_path, stage_fault):
        stage_fault("ilp:crash:1@PCR")  # only the first trip fires
        ex, _ = _executor(tmp_path, budget=RunBudget(**QUICK_RETRY))
        result = ex.run(["PCR"], PDWConfig(time_limit_s=63.0))
        assert result.ok
        records = sched_journal.read_records(ex.journal_path)
        assert [r["attempt"] for r in records if r["event"] == "attempt"] == [1, 2]
        assert [r["kind"] for r in records if r["event"] == "retry"] == ["crash"]
        # The second attempt got pathgen back from the cache, not recomputed.
        assert [r["origin"] for r in _stages(records, "PCR", "pathgen")] == [
            "computed", "cache"
        ]
        assert [r["origin"] for r in _stages(records, "PCR", "ilp")] == ["computed"]

    def test_retry_in_a_child_reruns_the_benchmark_in_a_new_child(
        self, tmp_path, stage_fault
    ):
        # The fixture's chaos state directory counts trips across
        # processes: the second child sees the first child's trip.
        stage_fault("ilp:crash:1@PCR")
        ex, _ = _executor(tmp_path, budget=RunBudget(timeout_s=300.0, **QUICK_RETRY))
        result = ex.run(["PCR"], PDWConfig(time_limit_s=63.5))
        assert result.ok
        records = sched_journal.read_records(ex.journal_path)
        assert [r["attempt"] for r in records if r["event"] == "attempt"] == [1, 2]
        assert [r["origin"] for r in _stages(records, "PCR", "pathgen")] == [
            "computed", "cache"
        ]

    def test_resume_replays_finished_stages_from_the_cache(
        self, tmp_path, stage_fault, monkeypatch
    ):
        from repro.pipeline import chaos

        cfg = PDWConfig(time_limit_s=64.0)
        stage_fault("ilp:crash@PCR")
        ex, cache = _executor(tmp_path)
        first = ex.run(SUITE, cfg)
        assert [f.name for f in first.failures] == ["PCR"]

        monkeypatch.delenv(chaos.ENV_STAGE_FAULT, raising=False)
        chaos.reset()
        before = len(sched_journal.read_records(ex.journal_path))
        ex2, _ = _executor(tmp_path, cache=cache, resume=True)
        second = ex2.run(SUITE, cfg)
        assert second.ok
        # The journaled success replays without any re-execution.
        assert second.resumed == ("Kinase-act-1",)
        fresh = sched_journal.read_records(ex2.journal_path)[before:]
        assert not [r for r in fresh if r.get("benchmark") == "Kinase-act-1"]
        # Within PCR, stages that finished before the crash come back from
        # the per-stage artifact cache; the crashed ILP recomputes.
        origins = {r["stage"]: r["origin"] for r in _stages(fresh, "PCR")}
        assert origins["pathgen"] == "cache"
        assert origins["ilp"] == "computed"


class TestCli:
    def test_suite_workers_exit_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli_main(
            ["suite", "Kinase-act-1", "--workers", "2", "--time-limit", "66"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 benchmarks succeeded" in out

    def test_suite_workers_exit_3_on_partial_failure(
        self, tmp_path, monkeypatch, stage_fault, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stage_fault("ilp:crash@PCR")
        code = cli_main(
            ["suite", "PCR", "Kinase-act-1", "--workers", "2",
             "--time-limit", "67"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED(crash)" in out
        assert "1/2 benchmarks succeeded" in out
