"""Stage-DAG suite execution: node-scoped chaos, retries, resume, CLI.

The companion of tests/integration/test_suite_execution.py, at stage-node
granularity: the in-process executor, and (where a test says so) the
same DAG inside a budgeted benchmark's forked child.  Chaos-driven tests
pin a unique
``PDWConfig`` per test for the same reason documented there: the
in-process memo ignores armed stage faults, so a memo hit from an
earlier test would bypass the injection point.
"""

from __future__ import annotations

import json

from repro.cli import main as cli_main
from repro.core import PDWConfig
from repro.pipeline import ArtifactCache
from repro.sched import journal as sched_journal
from repro.sched.executor import DagExecutor
from repro.sched.journal import RunBudget

SUITE = ["PCR", "Kinase-act-1"]


def _executor(tmp_path, **kwargs):
    cache = kwargs.pop("cache", None) or ArtifactCache(tmp_path / "store")
    journal = kwargs.pop("journal_path", tmp_path / "journal.jsonl")
    return DagExecutor(cache=cache, journal_path=journal, **kwargs), cache


class TestDagExecutor:
    def test_all_success_journals_every_node(self, tmp_path):
        ex, _ = _executor(tmp_path, workers=2)
        result = ex.run(SUITE, PDWConfig(time_limit_s=61.5))
        assert result.ok
        assert [run.name for run in result.runs] == SUITE
        records = sched_journal.read_records(ex.journal_path)
        # 11 nodes per benchmark, one attempt + one success each.
        assert len(sched_journal.node_attempts(records)) == 22
        successes = [r for r in records if r["event"] == "node_success"]
        assert len(successes) == 22
        # Benchmark-level events are journaled too (in completion order —
        # small benchmarks finish first).
        assert {
            r["benchmark"] for r in records if r["event"] == "success"
        } == set(SUITE)
        # Every stage record carries its scheduler queue wait.
        for run in result.runs:
            rec = run.report.get("pdw.ilp")
            assert rec is not None
            assert rec.counters.get("queue_wait_s") is not None

    def test_ilp_crash_kills_only_its_node_and_dependents(
        self, tmp_path, stage_fault
    ):
        stage_fault("ilp:crash@PCR")
        ex, _ = _executor(tmp_path, workers=2)
        result = ex.run(SUITE, PDWConfig(time_limit_s=62.0))
        (failure,) = result.failures
        assert failure.name == "PCR"
        assert failure.kind == "crash"
        (run,) = result.runs
        assert run.name == "Kinase-act-1"  # sibling benchmark completes

        records = sched_journal.read_records(ex.journal_path)
        cancelled = {r["node"] for r in records if r["event"] == "node_cancelled"}
        assert cancelled == {"PCR/pdw/assemble", "PCR/run/collect"}
        # PCR's DAWO chain is not downstream of the crashed ILP: it finished.
        dawo_done = {
            r["node"]
            for r in records
            if r["event"] == "node_success"
            and r["benchmark"] == "PCR"
            and r["method"] == "dawo"
        }
        assert dawo_done == {
            "PCR/dawo/necessity", "PCR/dawo/clusters", "PCR/dawo/sweepline"
        }
        # The crash never rewound upstream work.
        assert len(sched_journal.node_attempts(records, "PCR", "pathgen")) == 1

    def test_retry_rewinds_only_the_crashed_node(self, tmp_path, stage_fault):
        stage_fault("ilp:crash:1@PCR")  # only the first trip fires
        ex, _ = _executor(
            tmp_path,
            budget=RunBudget(retries=1, backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        result = ex.run(["PCR"], PDWConfig(time_limit_s=63.0))
        assert result.ok
        records = sched_journal.read_records(ex.journal_path)
        assert len(sched_journal.node_attempts(records, "PCR", "ilp")) == 2
        assert len(sched_journal.node_attempts(records, "PCR", "pathgen")) == 1
        retries = [r for r in records if r["event"] == "node_retry"]
        assert [r["stage"] for r in retries] == ["ilp"]

    def test_retry_rewinds_only_the_crashed_node_in_a_child(self, tmp_path, stage_fault):
        stage_fault("ilp:crash:1@PCR")
        ex, _ = _executor(
            tmp_path,
            budget=RunBudget(
                timeout_s=300.0, retries=1, backoff_base_s=0.01, backoff_cap_s=0.05
            ),
        )
        result = ex.run(["PCR"], PDWConfig(time_limit_s=63.5))
        assert result.ok
        records = sched_journal.read_records(ex.journal_path)
        # One benchmark process; inside it, the ILP ran twice, pathgen once.
        assert [r["attempt"] for r in records if r["event"] == "attempt"] == [1]
        assert len(sched_journal.node_attempts(records, "PCR", "ilp")) == 2
        assert len(sched_journal.node_attempts(records, "PCR", "pathgen")) == 1

    def test_resume_replays_at_node_granularity(
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
        # the per-stage artifact cache; only the crashed node recomputes.
        origins = {
            r["stage"]: r["origin"]
            for r in fresh
            if r["event"] == "node_success" and r["benchmark"] == "PCR"
        }
        assert origins["pathgen"] == "cache"
        assert origins["ilp"] == "computed"


class TestTimingsReport:
    def test_queue_wait_table_appears_for_dag_runs(self, tmp_path, monkeypatch):
        from repro.experiments.timings import timings_report

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        text = timings_report(["Kinase-act-1"], PDWConfig(time_limit_s=65.0))
        assert "Scheduler queue waits" in text


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

    def test_bench_records_the_suite_section(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_file = tmp_path / "bench.json"
        code = cli_main(
            ["bench", "--quick", "--sched-workers", "2", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        suite = payload["suite"]
        assert suite["sched_workers"] == 2
        assert suite["failures"] == 0
        assert suite["wall_s"] > 0.0
        assert suite["serial_sum_s"] > 0.0
