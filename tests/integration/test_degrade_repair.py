"""Integration tests: online detect→replan repair and the degrade matrix."""

import json
import os
from pathlib import Path

import pytest

from repro.bench import BENCHMARKS
from repro.cli import main
from repro.core import PDWConfig, optimize_washes
from repro.degrade.repair import (
    detect_first_violation,
    pick_online_fault,
    repair_plan,
)
from repro.degrade.suite import SUCCESS_OUTCOMES, run_degrade_matrix
from repro.errors import DegradationError
from repro.sched import journal as sched_journal
from repro.sched.journal import JOURNAL_NAME
from repro.export.plan_json import plan_to_dict
from repro.sim.events import SimEventKind
from repro.sim.validate import degraded_validation_problems
from repro.synth import synthesize

from tests.conftest import build_demo_assay


@pytest.fixture(scope="module")
def demo_synthesis():
    return synthesize(build_demo_assay())


@pytest.fixture(scope="module")
def healthy_plan(demo_synthesis):
    return optimize_washes(demo_synthesis, PDWConfig())


def test_auto_fault_violates_only_wash_intervals(demo_synthesis, healthy_plan):
    fault = pick_online_fault(healthy_plan, demo_synthesis)
    assert fault is not None

    event = detect_first_violation(healthy_plan, demo_synthesis, fault)
    assert event is not None
    assert event.kind is SimEventKind.DEAD_NODE_TRAVERSED
    assert event.task_id.startswith("wash:")
    assert event.node == fault.node


def test_repair_loop_converges_to_validator_clean_plan(demo_synthesis, healthy_plan):
    fault = pick_online_fault(healthy_plan, demo_synthesis)
    result = repair_plan(healthy_plan, demo_synthesis, PDWConfig(), fault)

    assert result.status in ("repaired", "degraded")
    assert result.records, "a real fault must take at least one repair round"
    assert result.records[0].node == fault.node
    assert result.plan.repairs == result.records

    # The repaired plan never sends a wash through the failed node after
    # the failure tick, and the degraded validator finds nothing.
    uncovered = set()
    info = result.plan.degradation
    if info is not None:
        uncovered = set(info.uncovered_targets)
        assert fault.node in info.dead
    problems, _ = degraded_validation_problems(
        result.plan, demo_synthesis, {fault.node: fault.time}, uncovered
    )
    assert not problems


def test_repaired_plan_json_carries_repair_rounds(demo_synthesis, healthy_plan):
    result = repair_plan(healthy_plan, demo_synthesis, PDWConfig())
    payload = plan_to_dict(result.plan)
    assert payload["repairs"]
    record = payload["repairs"][0]
    assert record["outcome"] == "replanned"
    assert record["node"] == result.failure.node
    assert "wall_s" in record


def test_degrade_matrix_static_rows(tmp_path):
    journal = tmp_path / "journal.jsonl"
    result = run_degrade_matrix(
        names=["PCR"], scenarios="light,moderate", journal_path=journal
    )
    assert len(result.rows) == 2
    assert result.ok
    for row in result.rows:
        assert row.outcome in SUCCESS_OUTCOMES
        assert row.benchmark == "PCR"
        assert 0.0 <= row.coverage <= 1.0
        assert len(row.dead) >= 1
    scenarios = [row.scenario for row in result.rows]
    assert scenarios == ["channels=1:seed=0", "channels=2:valves=1:seed=0"]

    # Each cell is a suite-engine work item: its attempt, its stages, and
    # its row in place of a benchmark's success record.
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    events = [r["event"] for r in records if r["event"] != "stage"]
    assert events == ["attempt", "degrade", "attempt", "degrade"]
    assert {r["scenario"] for r in records if r["event"] != "stage"} == set(scenarios)


def test_degrade_matrix_online_repair(tmp_path):
    result = run_degrade_matrix(
        names=["PCR"],
        scenarios="",
        online="auto",
        journal_path=tmp_path / "journal.jsonl",
    )
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.scenario == "none+online"
    assert row.outcome in ("REPAIRED", "DEGRADED")
    assert row.repair_rounds >= 1


def test_a_crashing_cell_is_a_row_and_the_next_cell_runs(tmp_path, monkeypatch):
    # Cells plan through runner.plan_one, as `pdw run` does.
    from repro.experiments import runner

    planned = []

    def optimize_washes(synthesis, config, cache=None):
        planned.append(config.degrade)
        if len(planned) == 1:
            raise RuntimeError("a bug in the first cell")
        return real(synthesis, config, cache=cache)

    real = runner.optimize_washes
    monkeypatch.setattr(runner, "optimize_washes", optimize_washes)
    result = run_degrade_matrix(
        names=["PCR"], scenarios="light,moderate",
        journal_path=tmp_path / "journal.jsonl", use_cache=False,
    )
    assert len(planned) == 2
    first, second = result.rows
    assert first.outcome == "FAILED(crash)"
    assert first.message == "RuntimeError: a bug in the first cell"
    assert second.outcome in SUCCESS_OUTCOMES
    assert not result.ok


def test_degrade_matrix_rejects_preset_config():
    with pytest.raises(DegradationError):
        run_degrade_matrix(names=["PCR"], config=PDWConfig(degrade="light"))


def test_statically_dead_used_node_exits_three(capsys):
    # A baseline-used node that dies before execution makes the *assay*
    # infeasible: the matrix reports INFEASIBLE_DEGRADED and exits 3.
    from repro.bench.library import benchmark, load_benchmark

    spec = benchmark("PCR")
    synthesis = synthesize(load_benchmark("PCR"), inventory=spec.inventory)
    used = sorted(
        n
        for task in synthesis.schedule.tasks()
        for n in (task.path or ())
        if not synthesis.chip.is_port(n)
    )
    code = main(["suite", "PCR", "--degrade", f"dead={used[0]}"])
    out = capsys.readouterr().out
    assert code == 3
    assert "INFEASIBLE_DEGRADED" in out


def test_suite_cli_no_cache_writes_only_the_journal(tmp_path, monkeypatch, capsys):
    # Regression: --no-cache used to reach the matrix as cache=None, which
    # fell back to the default artifact cache and filled it anyway.
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["suite", "PCR", "--degrade", "light", "--no-cache"]) == 0
    files = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert files == [Path(JOURNAL_NAME)]
    # The journal still serves the report.
    capsys.readouterr()
    assert main(["report", "degrade"]) == 0
    assert "channels=1:seed=0" in capsys.readouterr().out


def test_suite_cli_online_repair_exits_zero(capsys):
    code = main(["suite", "PCR", "--degrade-online"])
    out = capsys.readouterr().out
    assert code == 0
    assert "REPAIRED" in out or "DEGRADED" in out


# -- cells on the suite engine ----------------------------------------------------

#: The degrade-repair benchmark's matrix, whose final plans are pinned in
#: perf/reference.json.
PINNED = ["IVD", "Kinase-act-2", "Synthetic1"]
PINNED_SPEC = "channels=2:valves=1:seed=1"


def _plan_digests(monkeypatch, directory: Path) -> Path:
    """Record every cell's final plan digest under ``directory``, from
    whichever process plans the cell (a forked child inherits the patch)."""
    import hashlib

    from repro.degrade import suite
    from repro.export import canonical_plan_json

    real = suite.repair_plan

    def repair_plan(plan, synthesis, config, fault, cache=None):
        result = real(plan, synthesis, config, fault, cache=cache)
        text = canonical_plan_json(result.plan)
        (directory / synthesis.assay.name).write_text(
            hashlib.sha256(text.encode("utf-8")).hexdigest()
        )
        return result

    directory.mkdir()
    monkeypatch.setattr(suite, "repair_plan", repair_plan)
    return directory


def _rows(table: str) -> list:
    """A rendered matrix's rows without their wall_s column."""
    rows = []
    for line in table.splitlines():
        parts = line.split()
        if len(parts) >= 8 and parts[0] in BENCHMARKS:
            rows.append(parts[:7] + parts[8:])
    return rows


def test_forked_cells_print_the_inline_rows_and_plans(tmp_path, monkeypatch, capsys):
    # One matrix three ways: inline, forked at the default width, forked
    # one cell at a time.  The rows (wall aside) and the final plans agree,
    # and the plans are the pinned ones (HiGHS plans: clear a forced rung).
    from repro.ilp import faults

    monkeypatch.delenv(faults.ENV_FORCE, raising=False)
    monkeypatch.delenv(faults.ENV_FAULT, raising=False)
    with open(Path(__file__).resolve().parents[2] / "perf" / "reference.json") as fh:
        reference = json.load(fh)["digests"]
    pins = {name: reference[f"degrade/{name}"] for name in PINNED}
    tables, plans = [], []
    for run, widths in enumerate([None, [], ["--workers", "1"]]):
        digests = _plan_digests(monkeypatch, tmp_path / f"plans{run}")
        if widths is None:
            result = run_degrade_matrix(
                names=PINNED, scenarios=PINNED_SPEC, online="auto",
                config=PDWConfig(time_limit_s=120), use_cache=False,
            )
            tables.append(_rows(result.render()))
        else:
            argv = ["suite", *PINNED, "--degrade", PINNED_SPEC, "--degrade-online",
                    "auto", "--no-cache", *widths]
            assert main(argv) == 0
            tables.append(_rows(capsys.readouterr().out))
        plans.append({name: (digests / name).read_text() for name in PINNED})
    assert len(tables[0]) == 3
    assert tables[1] == tables[0] and tables[2] == tables[0]
    assert plans == [pins] * 3


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_hung_cell_times_out_and_the_next_cell_runs(stage_fault, capsys):
    from tests.integration.test_serve import children_of

    stage_fault("pathgen:hang:60@PCR")
    kids = children_of(os.getpid())
    code = main(["suite", "PCR", "IVD", "--degrade", "light", "--timeout", "5"])
    out = capsys.readouterr().out
    assert code == 3
    rows = {line.split()[0]: line.split()[2] for line in out.splitlines()
            if line.split()[:1] in (["PCR"], ["IVD"])}
    assert rows["PCR"] == "FAILED(timeout)"
    assert rows["IVD"] in SUCCESS_OUTCOMES
    assert children_of(os.getpid()) <= kids, "a cell's process outlived its timeout"


def test_resume_skips_the_cells_journaled_done(tmp_path, monkeypatch, stage_fault, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    journal = tmp_path / "cache" / JOURNAL_NAME
    argv = ["suite", "PCR", "Kinase-act-1", "--degrade", "light", "--resume"]
    stage_fault("pathgen:crash@PCR")
    assert main(argv) == 3
    first = _rows(capsys.readouterr().out)

    monkeypatch.delenv("REPRO_INJECT_STAGE_FAULT")
    for rerun in ("PCR", None):
        offset = sched_journal.journal_size(journal)
        assert main(argv) == 0
        rows = _rows(capsys.readouterr().out)
        records = sched_journal.read_records(journal, offset)
        # Only the failed cell runs again, then nothing does.
        assert {r["benchmark"] for r in records if r["event"] in ("attempt", "stage")} == (
            {rerun} if rerun else set()
        )
        assert rows[1] == first[1]  # Kinase-act-1's row, replayed from its record
    assert rows[0][2] in SUCCESS_OUTCOMES
