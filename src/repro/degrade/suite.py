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

Rows never raise: a scenario that breaks a benchmark is a reported row,
and the remaining cells still run.  Every row is journaled (``"event":
"degrade"`` records in the suite journal) so ``pdw report degrade``
renders the robustness table without re-running anything.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench import benchmark, benchmark_names, load_benchmark
from repro.core import PDWConfig, optimize_washes
from repro.degrade.model import DegradationSpec, parse_matrix
from repro.degrade.repair import parse_fault, repair_plan
from repro.errors import DegradationError
from repro.experiments.runner import FailureRecord, classify_failure
from repro.obs.metrics import registry
from repro.obs.trace import span
from repro.pipeline import ArtifactCache, default_cache
from repro.sched import journal as sched_journal
from repro.synth import synthesize

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
        """The journal form (``pdw report degrade`` reads these back)."""
        return {
            "event": "degrade",
            "benchmark": self.benchmark,
            "scenario": self.scenario,
            "outcome": self.outcome,
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


def _row_from_plan(name: str, scenario: str, plan, wall_s: float) -> DegradeRow:
    info = getattr(plan, "degradation", None)
    coverage = info.coverage if info is not None else 1.0
    if info is not None:
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
        benchmark=name,
        scenario=scenario,
        outcome="OK" if coverage >= 1.0 else "DEGRADED",
        coverage=coverage,
        dead=tuple(sorted(info.dead)) if info is not None else (),
        uncovered=tuple(info.uncovered_targets) if info is not None else (),
        washes=plan.n_wash,
        wall_s=wall_s,
    )


def run_degrade_matrix(
    names: Optional[Sequence[str]] = None,
    scenarios: str = "light",
    config: Optional[PDWConfig] = None,
    cache: Optional[ArtifactCache] = None,
    online: Optional[str] = None,
    journal_path=None,
    use_cache: bool = True,
) -> DegradeMatrixResult:
    """Run the degradation matrix and return one row per cell.

    ``scenarios`` is the raw ``--degrade`` value (comma-separated specs /
    presets).  ``online`` arms mid-execution fault injection on top of
    each scenario's static damage: ``"auto"`` picks a repairable fault
    deterministically, ``"node@tick"`` pins one.  With ``online`` set and
    ``scenarios`` empty the matrix runs one pristine-chip scenario per
    benchmark (pure online repair).  Journal records land in the suite
    journal (or ``journal_path``) for ``pdw report degrade``.
    ``use_cache=False`` (``--no-cache``) writes no artifacts; as under
    ``pdw suite``, the journal is written either way.
    """
    base_config = config if config is not None else PDWConfig()
    if base_config.degrade:
        raise DegradationError(
            "pass degradation scenarios via the matrix argument, not "
            "through PDWConfig.degrade"
        )
    names = list(names) if names else benchmark_names()
    if scenarios.strip():
        specs: List[Optional[DegradationSpec]] = list(parse_matrix(scenarios))
    elif online:
        specs = [None]  # pristine chip, online fault only
    else:
        raise DegradationError("the degradation matrix needs at least one scenario")

    cache = cache if cache is not None else (default_cache() if use_cache else None)
    if journal_path is None:
        from repro.sched.journal import default_journal_path

        journal_path = default_journal_path(cache)

    reg = registry()
    result = DegradeMatrixResult(journal_path=journal_path)
    for name in names:
        synthesis = None
        for spec in specs:
            scenario = spec.token() if spec is not None else "none"
            if online:
                scenario = f"{scenario}+online"
            started = time.perf_counter()
            with span("degrade.scenario", benchmark=name, scenario=scenario):
                try:
                    if synthesis is None:
                        bench_spec = benchmark(name)
                        synthesis = synthesize(
                            load_benchmark(name), inventory=bench_spec.inventory
                        )
                    row = _run_cell(
                        name, scenario, spec, synthesis, base_config, cache, online,
                        started,
                    )
                except Exception as exc:  # noqa: BLE001 — every failure is a row
                    kind, message = classify_failure(exc)
                    if isinstance(exc, DegradationError):
                        kind = "infeasible_degraded"  # a spec this chip cannot take
                    row = DegradeRow(
                        benchmark=name,
                        scenario=scenario,
                        outcome=FailureRecord(name, kind).label,
                        coverage=0.0,
                        wall_s=time.perf_counter() - started,
                        message=message,
                    )
            reg.counter("pdw_degrade_scenarios_total", outcome=row.outcome).inc()
            result.rows.append(row)
            if journal_path is not None:
                sched_journal.append_record(journal_path, row.as_record())
    return result


def _run_cell(
    name: str,
    scenario: str,
    spec: Optional[DegradationSpec],
    synthesis,
    base_config: PDWConfig,
    cache,
    online: Optional[str],
    started: float,
) -> DegradeRow:
    """One matrix cell: static degraded plan, then the optional online leg."""
    cfg = base_config
    if spec is not None:
        cfg = dataclasses.replace(base_config, degrade=spec.token())
    plan = optimize_washes(synthesis, cfg, cache=cache)
    row = _row_from_plan(name, scenario, plan, time.perf_counter() - started)

    if online:
        fault = parse_fault(online, plan, synthesis)
        repair = repair_plan(plan, synthesis, cfg, fault, cache=cache)
        info = getattr(repair.plan, "degradation", None)
        row.repair_rounds = len(repair.records)
        row.warm_started = any(r.warm_started for r in repair.records)
        row.washes = repair.plan.n_wash
        row.wall_s = time.perf_counter() - started
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
    return row
