"""The degradation matrix: every benchmark × every degradation scenario.

``pdw suite --degrade <spec>[,<spec>...]`` runs PDW (degradation is a
PDW-side capability; DAWO has no avoid-set routing) across the full
cross-product and reports one row per (benchmark, scenario):

========================== ======================================================
outcome                     meaning
========================== ======================================================
``OK``                      full coverage on the degraded chip
``DEGRADED``                plan validates, but some wash targets are unreachable
``REPAIRED``                online fault detected, replanned to full coverage
``INFEASIBLE_DEGRADED``     washing (or the assay itself) proven impossible
``FAILED(kind)``            an unrelated failure (bug, injected fault, ...)
========================== ======================================================

Each (benchmark, scenario) :class:`Cell` is a work item of the suite
engine, :class:`~repro.sched.executor.SuiteExecutor`: ``pdw suite``
plans each cell in a forked child under the run's budget, retries and
resumes cells as it does benchmarks, and :func:`run_degrade_matrix`
without an executor plans them inline.  Rows never raise: a scenario
that breaks a benchmark is a reported row, and the remaining cells still
run.  Every row is journaled (``"event": "degrade"`` records in the
suite journal) so ``pdw report degrade`` renders the robustness table
without re-running anything.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench import benchmark_names
from repro.core import PDWConfig
from repro.degrade.model import parse_matrix
from repro.degrade.repair import parse_fault, repair_plan
from repro.errors import DegradationError
from repro.experiments.runner import FailureRecord, plan_one, run_digest, synthesize_target
from repro.obs.metrics import registry
from repro.obs.trace import span
from repro.pipeline import ArtifactCache, chaos, stable_digest
from repro.sched.executor import SuiteExecutor

#: Degrade-matrix outcomes that count as success for the exit code.
#: ``DEGRADED`` is a success: the method did exactly what it promises on
#: a broken chip — planned what is physically washable and *reported*
#: the gap instead of crashing or silently under-washing.
SUCCESS_OUTCOMES = ("OK", "REPAIRED", "DEGRADED")


@dataclass
class DegradeRow:
    """One (benchmark, scenario) cell of the degradation matrix."""

    benchmark: str
    scenario: str
    outcome: str
    coverage: float = 1.0
    dead: tuple = ()
    uncovered: tuple = ()
    washes: int = 0
    repair_rounds: int = 0
    warm_started: bool = False
    wall_s: float = 0.0
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in SUCCESS_OUTCOMES

    def as_record(self) -> dict:
        """The journal form (``pdw report degrade`` and ``--resume`` read
        these back)."""
        return {
            "event": "degrade",
            "benchmark": self.benchmark,
            "scenario": self.scenario,
            "outcome": self.outcome,
            "ok": self.ok,
            "coverage": round(self.coverage, 4),
            "dead": sorted(self.dead),
            "uncovered": sorted(self.uncovered),
            "washes": self.washes,
            "repair_rounds": self.repair_rounds,
            "warm_started": self.warm_started,
            "wall_s": round(self.wall_s, 3),
            "message": self.message,
        }


@dataclass
class DegradeMatrixResult:
    """All rows of one matrix run, in (benchmark, scenario) order."""

    rows: List[DegradeRow] = field(default_factory=list)
    journal_path: Optional[object] = None

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        table_rows = []
        for row in self.rows:
            detail = row.message
            if not detail and row.uncovered:
                detail = "uncovered: " + ",".join(sorted(row.uncovered)[:4])
            table_rows.append(
                [
                    row.benchmark,
                    row.scenario,
                    row.outcome,
                    f"{100.0 * row.coverage:.0f}%",
                    str(len(row.dead)),
                    str(row.washes),
                    str(row.repair_rounds),
                    f"{row.wall_s:.2f}",
                    detail[:48],
                ]
            )
        return render_table(
            [
                "benchmark",
                "scenario",
                "outcome",
                "coverage",
                "dead",
                "washes",
                "repairs",
                "wall_s",
                "detail",
            ],
            table_rows,
        )


@dataclass(frozen=True)
class Cell:
    """One (benchmark, scenario) cell: a work item of the suite engine.

    ``degrade`` is the scenario's spec token (``""``: the pristine chip);
    ``online`` arms a mid-execution fault on top of it (``"auto"`` or
    ``"node@tick"``, as ``--degrade-online`` takes it).
    """

    benchmark: str
    degrade: str = ""
    online: Optional[str] = None

    @property
    def scenario(self) -> str:
        scenario = self.degrade or "none"
        return f"{scenario}+online" if self.online else scenario

    def digest(self, config: PDWConfig) -> str:
        """What a journaled row of this cell must match to be resumed."""
        cfg = dataclasses.replace(config, degrade=self.degrade)
        return stable_digest("degrade-cell", run_digest(self.benchmark, cfg), self.online)

    def plan(self, config: PDWConfig, cache: Optional[ArtifactCache]) -> DegradeRow:
        """Plan the cell: the static degraded plan, then the optional online
        leg.  Scoped for ``@<benchmark>`` stage faults; raises what fails."""
        started = time.perf_counter()
        cfg = dataclasses.replace(config, degrade=self.degrade)
        with span("degrade.scenario", benchmark=self.benchmark, scenario=self.scenario), \
                chaos.scope(self.benchmark):
            synthesis = synthesize_target(self.benchmark)
            plan = plan_one(synthesis, "pdw", cfg, cache)
            row = self._row(plan)
            if self.online:
                fault = parse_fault(self.online, plan, synthesis)
                repair = repair_plan(plan, synthesis, cfg, fault, cache=cache)
                info = repair.plan.degradation
                row.repair_rounds = len(repair.records)
                row.warm_started = any(r.warm_started for r in repair.records)
                row.washes = repair.plan.n_wash
                if repair.status == "infeasible":
                    row.outcome = "INFEASIBLE_DEGRADED"
                    row.coverage = info.coverage if info is not None else 0.0
                    row.message = repair.detail
                else:
                    row.outcome = "REPAIRED" if repair.status == "repaired" else "DEGRADED"
                    if info is not None:
                        row.coverage = info.coverage
                        row.dead = tuple(sorted(info.dead))
                        row.uncovered = tuple(info.uncovered_targets)
        row.wall_s = time.perf_counter() - started
        return row

    def _row(self, plan) -> DegradeRow:
        """The static plan's row, its dead nodes counted by kind."""
        info = plan.degradation
        if info is None:
            return DegradeRow(self.benchmark, self.scenario, "OK", washes=plan.n_wash)
        reg = registry()
        for kind, nodes in (
            ("channel", info.dead_channels),
            ("valve", info.dead_valves),
            ("device", info.dead_devices),
            ("explicit", info.dead_explicit),
        ):
            if nodes:
                reg.counter("pdw_degrade_dead_nodes_total", kind=kind).inc(len(nodes))
        return DegradeRow(
            self.benchmark, self.scenario,
            "OK" if info.coverage >= 1.0 else "DEGRADED",
            coverage=info.coverage,
            dead=tuple(sorted(info.dead)),
            uncovered=tuple(info.uncovered_targets),
            washes=plan.n_wash,
        )

    def finished(self, entry, wall_s: float) -> DegradeRow:
        """The cell's row once the engine is done with it: the planned row,
        or a terminal :class:`FailureRecord` as a ``FAILED(kind)`` (or
        ``INFEASIBLE_DEGRADED``) row."""
        row = entry
        if isinstance(entry, FailureRecord):
            row = DegradeRow(self.benchmark, self.scenario, entry.label, coverage=0.0,
                             wall_s=wall_s, message=entry.message)
        registry().counter("pdw_degrade_scenarios_total", outcome=row.outcome).inc()
        return row

    def replay(self, record: dict) -> DegradeRow:
        """The row a journaled ``degrade`` record holds (``--resume``)."""
        row = DegradeRow(**{f.name: record[f.name] for f in dataclasses.fields(DegradeRow)})
        return dataclasses.replace(row, dead=tuple(row.dead), uncovered=tuple(row.uncovered))


def run_degrade_matrix(
    names: Optional[Sequence[str]] = None,
    scenarios: str = "light",
    config: Optional[PDWConfig] = None,
    cache: Optional[ArtifactCache] = None,
    online: Optional[str] = None,
    journal_path=None,
    use_cache: bool = True,
    executor=None,
) -> DegradeMatrixResult:
    """Run the degradation matrix and return one row per cell.

    ``scenarios`` is the raw ``--degrade`` value (comma-separated specs /
    presets).  ``online`` arms mid-execution fault injection on top of
    each scenario's static damage; with ``scenarios`` empty every
    benchmark gets one pristine-chip cell (pure online repair).  ``executor``
    runs the cells (``pdw suite`` passes its budgeted
    :class:`~repro.sched.executor.SuiteExecutor`); without one they run
    inline, one at a time, with ``cache`` / ``use_cache`` as for
    :func:`~repro.experiments.runner.run_benchmark` and rows journaled to
    ``journal_path`` (``None``: not journaled).
    """
    base_config = config if config is not None else PDWConfig()
    if base_config.degrade:
        raise DegradationError(
            "pass degradation scenarios via the matrix argument, not "
            "through PDWConfig.degrade"
        )
    if scenarios.strip():
        tokens = [spec.token() for spec in parse_matrix(scenarios)]
    elif online:
        tokens = [""]
    else:
        raise DegradationError("the degradation matrix needs at least one scenario")
    names = list(names) if names else benchmark_names()
    cells = [Cell(name, token, online) for name in names for token in tokens]
    if executor is None:
        executor = SuiteExecutor(cache=cache, use_cache=use_cache, journal_path=journal_path)
    result = executor.run(cells, base_config)
    return DegradeMatrixResult(rows=list(result), journal_path=result.journal_path)
