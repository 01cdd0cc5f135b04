"""Fault-tolerant suite execution: forked benchmarks, journals, resume, CLI.

``TestSupervisor`` drives :class:`~repro.sched.executor.SuiteExecutor`
under a budget, where each benchmark attempt runs in its own forked
child; ``TestRunSuite`` drives the in-process ``run_suite``.

Chaos-driven tests pin a unique ``PDWConfig`` per test: the in-process
memo deliberately ignores armed stage faults (see
``repro.experiments.runner``), so a memo hit from an earlier test would
otherwise bypass the injection point entirely.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

from repro.cli import main as cli_main
from repro.core import PDWConfig
from repro.experiments.runner import (
    BenchmarkRun,
    SuiteResult,
    run_benchmark,
    run_suite,
)
from repro.experiments.table2 import table2_report
from repro.pipeline import ArtifactCache
from repro.sched import journal as sched_journal
from repro.sched.executor import SuiteExecutor
from repro.sched.journal import RunBudget, failures_report
from tests.integration.test_serve import children_of, needs_proc

SUITE = ["PCR", "Kinase-act-1"]
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _supervisor(tmp_path, budget=None, **kwargs):
    """A budgeted executor: every benchmark runs in a forked child."""
    cache = kwargs.pop("cache", None) or ArtifactCache(tmp_path / "store")
    budget = budget or RunBudget(timeout_s=300.0)
    journal = tmp_path / "journal.jsonl"
    return SuiteExecutor(budget=budget, cache=cache, journal_path=journal, **kwargs), cache


def _read_journal(path):
    return sched_journal.read_records(path)


class TestSupervisor:
    def test_all_success(self, tmp_path):
        sup, cache = _supervisor(tmp_path)
        result = sup.run(SUITE, PDWConfig(time_limit_s=41.0))
        assert isinstance(result, SuiteResult)
        assert result.ok
        assert [run.name for run in result.runs] == SUITE
        assert all(isinstance(run, BenchmarkRun) for run in result)
        events = {r["event"] for r in _read_journal(result.journal_path)}
        assert events == {"attempt", "success", "metrics", "stage"}

    def test_crashed_benchmark_does_not_abort_the_suite(self, tmp_path, stage_fault):
        stage_fault("pathgen:crash@PCR")
        sup, _ = _supervisor(tmp_path)
        result = sup.run(SUITE, PDWConfig(time_limit_s=42.0))
        assert not result.ok
        assert len(result) == 2
        (failure,) = result.failures
        assert failure.name == "PCR"
        assert failure.kind == "crash"
        assert failure.label == "FAILED(crash)"
        (run,) = result.runs
        assert run.name == "Kinase-act-1"

    def test_retry_recovers_a_transient_crash(self, tmp_path, stage_fault):
        stage_fault("pathgen:crash:1@PCR")  # only the first trip fires
        sup, _ = _supervisor(
            tmp_path,
            budget=RunBudget(
                timeout_s=300.0, retries=1, backoff_base_s=0.01, backoff_cap_s=0.05
            ),
        )
        result = sup.run(["PCR"], PDWConfig(time_limit_s=43.0))
        assert result.ok
        records = _read_journal(result.journal_path)
        # The raised failure retried the whole benchmark in a new child.
        attempts = [r for r in records if r["event"] == "attempt"]
        assert [r["attempt"] for r in attempts] == [1, 2]
        assert [r["kind"] for r in records if r["event"] == "retry"] == ["crash"]
        assert records[-1]["event"] == "success"

    def test_hang_is_killed_on_the_wall_clock_budget(self, tmp_path, stage_fault):
        stage_fault("synthesis:hang:60@PCR")
        sup, _ = _supervisor(tmp_path, budget=RunBudget(timeout_s=1.0))
        result = sup.run(["PCR"], PDWConfig(time_limit_s=44.0))
        (failure,) = result.failures
        assert failure.kind == "timeout"
        assert "wall-clock" in failure.message

    @needs_proc
    def test_a_timeout_leaves_no_thread_and_no_child(self, tmp_path, stage_fault):
        stage_fault("synthesis:hang:60@PCR")
        sup, _ = _supervisor(tmp_path, budget=RunBudget(timeout_s=1.0))
        threads, kids = set(threading.enumerate()), children_of(os.getpid())
        result = sup.run(["PCR"], PDWConfig(time_limit_s=44.5))
        assert [f.label for f in result.failures] == ["FAILED(timeout)"]
        assert set(threading.enumerate()) <= threads, "a timeout left a thread running"
        assert children_of(os.getpid()) <= kids, "a benchmark process outlived its timeout"

    def test_a_tight_address_space_cap_reads_as_oom(self, tmp_path):
        # A fresh interpreter's address space already exceeds a 24 MiB cap,
        # so the child's first allocations fail.  (This process's heap may
        # hold enough freed memory for a whole run under any cap.)  The
        # child runs the benchmark on its main thread: there is no worker
        # thread to fail to start ("can't start new thread", a crash).
        code = textwrap.dedent(
            """
            from repro.core import PDWConfig
            from repro.sched.executor import SuiteExecutor
            from repro.sched.journal import RunBudget

            executor = SuiteExecutor(
                budget=RunBudget(max_rss_bytes=24 << 20), use_cache=False
            )
            result = executor.run(["PCR"], PDWConfig(time_limit_s=44.7))
            print(*[f.kind for f in result.failures])
            """
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["oom"]

    def test_worker_death_is_classified_as_crash(self, tmp_path, stage_fault):
        stage_fault("replay:exit@PCR")  # os._exit: no goodbye over the pipe
        sup, _ = _supervisor(tmp_path)
        result = sup.run(["PCR"], PDWConfig(time_limit_s=45.0))
        (failure,) = result.failures
        assert failure.kind == "crash"
        assert "exited with code 13" in failure.message

    def test_a_dead_child_is_retried_whole(self, tmp_path, stage_fault):
        stage_fault("replay:exit@PCR")
        sup, _ = _supervisor(
            tmp_path,
            budget=RunBudget(
                timeout_s=300.0, retries=1, backoff_base_s=0.01, backoff_cap_s=0.05
            ),
        )
        result = sup.run(["PCR"], PDWConfig(time_limit_s=45.5))
        (failure,) = result.failures
        assert (failure.kind, failure.attempts) == ("crash", 2)
        records = _read_journal(result.journal_path)
        assert [r["attempt"] for r in records if r["event"] == "attempt"] == [1, 2]
        assert [r["kind"] for r in records if r["event"] == "retry"] == ["crash"]
        assert records[-1]["event"] == "failure"

    def test_resume_skips_journaled_successes(self, tmp_path, stage_fault, monkeypatch):
        from repro.pipeline import chaos

        cfg = PDWConfig(time_limit_s=46.0)
        stage_fault("pathgen:crash@PCR")
        sup, cache = _supervisor(tmp_path)
        first = sup.run(SUITE, cfg)
        assert [f.name for f in first.failures] == ["PCR"]

        monkeypatch.delenv(chaos.ENV_STAGE_FAULT, raising=False)
        chaos.reset()
        sup2, _ = _supervisor(tmp_path, cache=cache, resume=True)
        second = sup2.run(SUITE, cfg)
        assert second.ok
        assert second.resumed == ("Kinase-act-1",)
        # Resume never re-executed the journaled success.
        attempts = [
            r for r in _read_journal(second.journal_path)
            if r["event"] == "attempt" and r["benchmark"] == "Kinase-act-1"
        ]
        assert len(attempts) == 1

    def test_failures_report_renders_the_journal(self, tmp_path, stage_fault):
        stage_fault("pathgen:crash@PCR")
        sup, _ = _supervisor(tmp_path)
        result = sup.run(["PCR"], PDWConfig(time_limit_s=47.0))
        text = failures_report(result.journal_path)
        assert "PCR" in text
        assert "crash" in text
        assert "FAILED(crash)" in text

    def test_merged_metrics_rebuild_the_children_series(self, tmp_path):
        sup, _ = _supervisor(tmp_path)
        result = sup.run(["PCR"], PDWConfig(time_limit_s=47.5))
        merged = sched_journal.merged_metrics(result.journal_path).as_dict()
        names = {series["name"] for series in merged["series"]}
        assert "pdw_plan_validations_total" in names


class TestRunSuite:
    def test_custom_cache_reaches_the_workers(self, tmp_path):
        cache = ArtifactCache(tmp_path / "custom")
        result = run_suite(["PCR"], PDWConfig(time_limit_s=48.0), cache=cache)
        assert result.ok
        assert len(list(cache.entries())) > 0

    def test_process_pool_matches_thread_pool_on_warm_cache(self, tmp_path):
        from repro.experiments import runner

        cfg = PDWConfig(time_limit_s=49.0)
        cache = ArtifactCache(tmp_path / "shared")
        warm = run_suite(SUITE, cfg, cache=cache)
        runner.clear_cache()
        sup, _ = _supervisor(tmp_path, cache=cache, workers=2)
        cold_memo = sup.run(SUITE, cfg)
        assert cold_memo.ok
        for a, b in zip(warm.runs, cold_memo.runs):
            assert a.name == b.name
            assert a.pdw.metrics() == b.pdw.metrics()
            assert a.dawo.metrics() == b.dawo.metrics()
        assert all(run.from_cache for run in cold_memo.runs)

    def test_process_pool_results_are_memo_adopted(self, tmp_path):
        from repro.experiments import runner

        cfg = PDWConfig(time_limit_s=50.0)
        cache = ArtifactCache(tmp_path / "adopt")
        runner.clear_cache()
        sup, _ = _supervisor(tmp_path, cache=cache)
        result = sup.run(["PCR"], cfg)
        assert run_benchmark("PCR", cfg, cache=cache) is result[0]

    def test_unsupervised_suite_captures_repro_errors(self, stage_fault):
        stage_fault("pathgen:crash@PCR")
        result = run_suite(SUITE, PDWConfig(time_limit_s=51.0), use_cache=False)
        assert [f.name for f in result.failures] == ["PCR"]
        assert [r.name for r in result.runs] == ["Kinase-act-1"]

    def test_a_cache_off_suite_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        result = run_suite(["PCR"], PDWConfig(time_limit_s=51.2))
        assert result.ok
        assert (result.journal_path, result.metrics_path) == (None, None)
        assert not list(tmp_path.iterdir())

    def test_run_suite_leaves_no_worker_thread(self):
        threads = set(threading.enumerate())
        result = run_suite(["PCR"], PDWConfig(time_limit_s=51.5), use_cache=False)
        assert result.ok
        assert set(threading.enumerate()) <= threads


class TestReports:
    def test_table2_renders_failed_rows(self, stage_fault):
        stage_fault("pathgen:crash@PCR")
        text = table2_report(SUITE, PDWConfig(time_limit_s=52.0))
        assert "FAILED(crash)" in text
        assert "Kinase-act-1" in text
        assert "1 of 2 benchmarks failed" in text


class TestCli:
    def test_suite_exit_0_on_success(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli_main(["suite", "PCR", "--time-limit", "53"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 benchmarks succeeded" in out

    def test_suite_exit_3_on_partial_failure(
        self, tmp_path, monkeypatch, stage_fault, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stage_fault("pathgen:crash@PCR")
        code = cli_main(["suite", "PCR", "Kinase-act-1", "--time-limit", "54"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED(crash)" in out
        assert "1/2 benchmarks succeeded" in out

        code = cli_main(["report", "failures"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PCR" in out

    def test_suite_exit_3_when_a_benchmark_process_dies(
        self, tmp_path, monkeypatch, stage_fault, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stage_fault("replay:exit@PCR")
        code = cli_main(["suite", "PCR", "Kinase-act-1", "--time-limit", "54.5"])
        out = capsys.readouterr().out
        assert code == 3
        assert "exited with code 13" in out
        assert "1/2 benchmarks succeeded" in out

    def test_suite_exit_3_on_a_hang_past_the_timeout(
        self, tmp_path, monkeypatch, stage_fault, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stage_fault("synthesis:hang:60@PCR")
        code = cli_main(["suite", "PCR", "--time-limit", "54.7", "--timeout", "1"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED(timeout)" in out

    def test_cache_verify_reports_corruption(self, tmp_path, monkeypatch, capsys):
        # This tests the disk cache itself, so it must be on even where the
        # suite runs with REPRO_CACHE=off.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["run", "PCR", "--time-limit", "55"]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "verify"]) == 0
        assert "0 quarantined" in capsys.readouterr().out

        cache = ArtifactCache(tmp_path / "cache")
        victim = next(iter(cache.entries()))
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert cli_main(["cache", "verify"]) == 1
        assert "checksum-mismatch" in capsys.readouterr().out
        # The store healed: a second verify is clean.
        assert cli_main(["cache", "verify"]) == 0
