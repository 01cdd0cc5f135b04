"""The PathDriver-Wash orchestrator.

Pipeline (Section III, decomposed as described in DESIGN.md §7):

1. **replay** — replay the wash-free baseline schedule and collect
   contamination events (:mod:`repro.contam.tracker`),
2. **necessity** — wash-necessity analysis, Type 1/2/3 exemptions
   (Eqs. 9-11),
3. **clusters** — group the remaining requirements into wash clusters
   (:mod:`repro.core.targets`),
4. **pathgen** — generate candidate port-to-port wash paths per cluster
   (:mod:`repro.core.pathgen`; optionally refined by the exact path ILP of
   Eqs. 12-15),
5. **ilp** — solve the scheduling ILP (Eqs. 1-8, 16-26) selecting wash
   paths and time windows and folding excess removals into washes
   (ψ, Eq. 21),
6. **assemble** — materialize and verify the final wash-aware schedule.

The stages themselves live in :mod:`repro.core.stages`; this module
composes them through a :class:`~repro.pipeline.PipelineRun`, which
optionally serves stage artifacts from a content-addressed
:class:`~repro.pipeline.ArtifactCache` and always records per-stage wall
times, counters and solver statistics into the plan's
:class:`~repro.pipeline.RunReport` (``plan.report`` /
``plan.notes["stage.*"]``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.contam import ContaminationTracker, contamination_violations
from repro.core.config import PDWConfig
from repro.core.plan import WashPlan
from repro.core.stages import (
    ASSEMBLE_STAGE,
    CLUSTER_STAGE,
    NECESSITY_STAGE,
    PATHGEN_STAGE,
    REPLAY_STAGE,
    SCHEDULE_ILP_STAGE,
    PDWContext,
)
from repro.errors import WashError
from repro.obs.trace import span
from repro.pipeline import ArtifactCache, PipelineRun
from repro.sim.validate import validate_plan
from repro.synth.synthesis import SynthesisResult


class PathDriverWash:
    """PDW wash optimization over a synthesis result.

    Parameters
    ----------
    synthesis:
        The synthesized assay execution (chip + wash-free schedule).
    config:
        PDW knobs; a fresh :class:`PDWConfig` per instance when omitted.
    cache:
        Optional content-addressed artifact cache; stage artifacts are
        served from (and written to) it, surviving across processes.
    tracker:
        Optional pre-computed contamination replay of the same synthesis —
        pass it to share the replay artifact with another pipeline (e.g.
        DAWO on the same benchmark) instead of recomputing it.
    """

    def __init__(
        self,
        synthesis: SynthesisResult,
        config: Optional[PDWConfig] = None,
        cache: Optional[ArtifactCache] = None,
        tracker: Optional[ContaminationTracker] = None,
    ):
        self.synthesis = synthesis
        self.config = config if config is not None else PDWConfig()
        self.cache = cache
        self.tracker = tracker

    # -- pipeline ------------------------------------------------------------------

    def run(self, verify: bool = True) -> WashPlan:
        """Execute the full PDW pipeline and return the wash plan."""
        cfg = self.config
        return self.sweep([(cfg.alpha, cfg.beta, cfg.gamma)], verify)[0]

    def sweep(
        self, weights: Sequence[Tuple[float, float, float]], verify: bool = True
    ) -> List[WashPlan]:
        """One plan per ``(alpha, beta, gamma)`` point, routing once.

        The weights enter only the ILP objective (Eq. 26), and replay,
        necessity, clusters and pathgen key without them.  Those four run
        for the first point alone; every later point reuses their
        artifacts, records them as ``shared``, and runs only the ILP and
        assembly, so each plan equals a standalone :meth:`run` under the
        same weights.
        """
        plans: List[WashPlan] = []
        for alpha, beta, gamma in weights:
            config = dataclasses.replace(self.config, alpha=alpha, beta=beta, gamma=gamma)
            with span("pdw", assay=self.synthesis.assay.name):
                run = PipelineRun(label=f"PDW:{self.synthesis.assay.name}", cache=self.cache)
                if plans:
                    ctx = dataclasses.replace(ctx, config=config)
                    for rec in upstream:
                        run.provided(rec.stage, rec.counters)
                else:
                    ctx = self._prepare(config, run)
                    upstream = list(run.report.stages)
                plans.append(self._solve(ctx, run, verify))
        return plans

    def _prepare(self, config: PDWConfig, run: PipelineRun) -> PDWContext:
        """Run the weight-independent stages: replay through pathgen."""
        ctx = PDWContext(synthesis=self.synthesis, config=config, cache=self.cache)
        if self.tracker is not None:
            ctx.tracker = self.tracker
            run.provided(REPLAY_STAGE.name, REPLAY_STAGE.counters(self.tracker))
        else:
            ctx.tracker = run.run_stage(REPLAY_STAGE, ctx)
        ctx.necessity = run.run_stage(NECESSITY_STAGE, ctx)
        if ctx.necessity.required:
            ctx.clusters = run.run_stage(CLUSTER_STAGE, ctx)
            ctx.candidates = run.run_stage(PATHGEN_STAGE, ctx).candidates
        return ctx

    def _solve(self, ctx: PDWContext, run: PipelineRun, verify: bool) -> WashPlan:
        """Run the ILP and assembly on a prepared context."""
        if not ctx.necessity.required:
            return self._finish(no_wash_plan(ctx), run, verify=False)
        ctx.outcome = run.run_stage(SCHEDULE_ILP_STAGE, ctx)
        record_ilp_rows(run, ctx.outcome)
        plan = run.run_stage(ASSEMBLE_STAGE, ctx)
        return self._finish(plan, run, verify=verify)

    def _finish(self, plan: WashPlan, run: PipelineRun, verify: bool) -> WashPlan:
        plan.report = run.report
        plan.notes.update(run.report.flat())
        if verify:
            degradation = getattr(plan, "degradation", None)
            verify_plan(plan, degradation=degradation)
            validate_plan(plan, self.synthesis, degradation=degradation)
        return plan


def record_ilp_rows(run: PipelineRun, outcome) -> None:
    """Report the ILP stage's auxiliary time series after it ran.

    ``ilp.build`` is the model-construction time (surfacing as
    ``pdw.ilp.build`` in merged reports and ``pdw bench``); when the ILP
    stage artifact came from the cache the stored build time belongs to an
    earlier process, so no row is recorded — the value still surfaces
    through the stage's ``build_time_s`` counter.  ``ilp.presolve``
    (surfacing as ``pdw.ilp.presolve``) records the model-reduction pass
    with its fixed/dropped counters under the same cache gating.  Each
    solver-ladder rung attempt then gets its own ``ilp.rung.<rung>``
    record.
    """
    last = run.report.stages[-1] if run.report.stages else None
    cached = last is not None and last.stage == "ilp" and last.cached
    if getattr(outcome, "presolve_time_s", 0.0) and not cached:
        run.report.record(
            "ilp.presolve",
            wall_s=outcome.presolve_time_s,
            counters={
                "fixed_binaries": float(outcome.presolve_fixed_binaries),
                "dropped_constraints": float(outcome.presolve_dropped_constraints),
                "dropped_candidates": float(outcome.presolve_dropped_candidates),
            },
            detail=(
                f"fixed {outcome.presolve_fixed_binaries} binaries, dropped "
                f"{outcome.presolve_dropped_constraints} rows, "
                f"{outcome.presolve_dropped_candidates} candidates"
            ),
        )
    if outcome.build_time_s and not cached:
        run.report.record(
            "ilp.build",
            wall_s=outcome.build_time_s,
            detail=outcome.model_stats,
        )
    for att in outcome.attempts:
        counters = {}
        if att.mip_gap is not None:
            counters["mip_gap"] = float(att.mip_gap)
        if att.objective is not None:
            counters["objective"] = float(att.objective)
        run.report.record(
            f"ilp.rung.{att.rung}",
            wall_s=att.wall_s,
            counters=counters,
            detail=f"{att.status}: {att.message}" if att.message else att.status,
        )


def no_wash_plan(ctx: PDWContext) -> WashPlan:
    """The empty PDW plan for a run whose necessity analysis demands no
    washes — the baseline schedule passes through untouched."""
    return WashPlan(
        method="PDW",
        chip=ctx.synthesis.chip,
        schedule=ctx.synthesis.schedule.copy(),
        washes=[],
        baseline_schedule=ctx.synthesis.schedule,
        solver_status="no-wash-needed",
        notes={"necessity_events": float(ctx.necessity.total_events)},
    )


def verify_plan(plan: WashPlan, degradation=None) -> None:
    """Raise :class:`WashError` unless the plan is conflict- and residue-free.

    ``degradation`` (a :class:`~repro.degrade.model.DegradationInfo`)
    waives residue violations at the plan's *reported-uncovered* wash
    targets — a degraded chip may be physically unable to wash those
    nodes, and silently tolerating them anywhere else would hide real
    bugs.  Conflicts are never waived.
    """
    conflicts = plan.schedule.conflicts()
    if conflicts:
        raise WashError(f"{plan.method} plan has resource conflicts: {conflicts[:5]}")
    violations = contamination_violations(plan.chip, plan.schedule)
    if degradation is not None and violations:
        uncovered = frozenset(degradation.uncovered_targets)
        violations = [v for v in violations if v.node not in uncovered]
    if violations:
        raise WashError(
            f"{plan.method} plan leaves cross-contamination: "
            + "; ".join(str(v) for v in violations[:5])
        )


def optimize_washes(
    synthesis: SynthesisResult,
    config: Optional[PDWConfig] = None,
    verify: bool = True,
    cache: Optional[ArtifactCache] = None,
    tracker: Optional[ContaminationTracker] = None,
) -> WashPlan:
    """Convenience wrapper: run PDW on a synthesis result."""
    return PathDriverWash(synthesis, config, cache=cache, tracker=tracker).run(
        verify=verify
    )
