"""Tests of the benchmark harness.  Run with ``python -m pytest perf/``."""

from __future__ import annotations

import copy
import json
import statistics
import subprocess
import sys
import time

import pytest

from check import validate_config, verdict
from harness import (
    END_TO_END,
    INFO,
    PER_LAYER,
    ROOT,
    SOLVER_CAP_S,
    median,
    percentile,
    plan_timeout,
    quartiles,
    run_child,
    spread,
    supported_percentile,
)
from workloads import Options


def config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert median(values) == 4.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / 4.0)
    assert quartiles([2.5]) == (2.5, 2.5) and spread([2.5]) == 0.0


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 100) == 10
    assert percentile([3.0], 90) == 3.0


def test_supported_percentile_keeps_ten_samples_beyond():
    def beyond(n, p):  # samples ranked above n * p / 100
        return n - (n * p) // 100

    assert supported_percentile(9) is None
    assert supported_percentile(100) == 90
    assert supported_percentile(315) == 97
    for n in range(10, 2000):
        p = supported_percentile(n)
        assert beyond(n, p) >= 10
        assert p == 99 or beyond(n, p + 1) < 10


def test_wait4_counts_cpu_of_a_grandchild_the_child_waited_for(tmp_path):
    """The child forks, its grandchild burns CPU, the child reaps it and
    prints the readiness line last: the CPU and the readiness time must
    both show in what ``run_child`` measured from outside."""
    script = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    end = time.process_time() + 0.4\n"
        "    while time.process_time() < end: pass\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print('PERF-READY', flush=True)\n"
        "print('{\"done\": 1}')\n"
    )
    result = run_child([sys.executable, "-c", script], {}, tmp_path, timeout_s=60)
    assert result.returncode == 0
    assert result.cpu_s >= 0.35
    assert result.setup_s is not None and result.setup_s >= 0.35
    assert result.wall_s >= result.setup_s
    assert result.maxrss_mb > 0
    assert result.lines == ['{"done": 1}']


def test_sampling_stops_at_the_minimum_and_before_passing_the_seconds():
    opts = Options(seed=1, seconds=10.0, scratch=None, reference={})
    now = time.perf_counter()
    assert not opts.enough(0, now - 100.0)  # below the minimum of one
    assert not opts.enough(3, now - 6.0)    # a 4th would end near 8 s
    assert opts.enough(3, now - 9.0)        # a 4th would end near 12 s
    smoke = Options(seed=1, seconds=10.0, scratch=None, reference={}, smoke=True)
    assert not smoke.enough(0, now) and smoke.enough(1, now - 1.0)


def test_child_timeouts_leave_room_beyond_the_solver_cap():
    assert plan_timeout(1) > SOLVER_CAP_S + 60.0
    assert plan_timeout(5) == 5 * plan_timeout(1)


def test_benchmark_json_declares_exactly_what_the_harness_emits():
    cfg = config()
    assert validate_config(cfg) == []
    assert [e["name"] for e in cfg["end_to_end"]] == list(END_TO_END)
    assert [e["name"] for e in cfg["per_layer"]] == list(PER_LAYER)
    setup = next(e for e in cfg["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in cfg["end_to_end"])
    for entry in cfg["end_to_end"]:
        if entry["unit"] in ("s", "1/s"):
            assert entry["bound"] <= 0.10, entry


def test_drift_check_catches_each_kind_of_mismatch():
    cfg = config()
    missing = copy.deepcopy(cfg)
    missing["end_to_end"].pop()
    assert any("BENCHMARK.json lacks" in p for p in validate_config(missing))
    extra = copy.deepcopy(cfg)
    extra["per_layer"].append({"name": "made.up", "unit": "s", "better": "lower"})
    assert any("harness lacks" in p for p in validate_config(extra))
    bad = copy.deepcopy(cfg)
    bad["per_layer"][0]["name"] = "bad name!"
    assert any("bad metric name" in p for p in validate_config(bad))
    many = copy.deepcopy(cfg)
    many["end_to_end"] += [dict(cfg["end_to_end"][0], name=f"m{i}") for i in range(16)]
    assert any("allowed 1..16" in p for p in validate_config(many))
    loose = copy.deepcopy(cfg)
    loose["end_to_end"][0]["bound"] = 0.5
    assert any("bound" in p for p in validate_config(loose))
    loose_timing = copy.deepcopy(cfg)
    timing = next(e for e in loose_timing["end_to_end"] if e["unit"] == "s")
    timing["bound"] = 0.2
    assert any("not in (0, 0.1]" in p for p in validate_config(loose_timing))


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [10.2, 10.3, 10.25], 0.1, lower=True)[0] == "ok"
    assert verdict(base, [12.0, 12.1, 11.9], 0.1, lower=True)[0] == "regression"
    assert verdict(base, [12.0, 12.1, 11.9], 0.1, lower=False)[0] == "ok"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert verdict(noisy, [9.0, 10.0, 11.0], 0.1, lower=True)[0] == "unresolved"
    assert verdict(noisy, [1.0, 2.0, 3.0], 0.1, lower=True)[0] == "ok"


def test_smoke_run_finishes_in_under_a_minute():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    took = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert took < 60
    per_run = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    assert len(per_run) == 8  # four workloads, untraced then traced
    for line in per_run:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for line in per_run[:4]:
        assert set(line["metrics"]) == set(END_TO_END)
        # Kinase-act-1 alone has no wash delay, so only the process metrics
        # are sure to be positive here.
        for name in ("setup_s", "peak_rss_mb"):
            assert line["metrics"][name]["value"] > 0
    for name in INFO:  # the ungated timings are printed for each workload
        assert proc.stdout.count(f"  {name} ") == 4
    for line in per_run[4:]:
        assert set(line["metrics"]) == set(PER_LAYER)
    assert not (ROOT / ".perf_tmp").exists()
