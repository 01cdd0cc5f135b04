"""The PDW flow of Section III as explicit pipeline stages.

Each stage consumes the :class:`PDWContext`, produces one immutable,
picklable artifact, and declares a cache key covering exactly the inputs
the artifact depends on (synthesis digest + the relevant
:class:`PDWConfig` fields; the cache salts every key with the package
source, see :func:`repro.pipeline.cache.code_salt`).  The stages, in
order:

========== ============================================= =================
stage      artifact                                      depends on
========== ============================================= =================
replay     :class:`ContaminationTracker`                 synthesis
necessity  :class:`NecessityReport`                      + necessity policy
clusters   ``List[WashCluster]``                         + merge knobs
pathgen    ``Dict[cluster id, List[FlowPath]]``          + candidate knobs
ilp        :class:`IlpWashOutcome`                       + full config
assemble   :class:`WashPlan`                             (never cached)
========== ============================================= =================

The ``replay`` stage is shared verbatim with the DAWO baseline
(:mod:`repro.baselines.dawo`): both methods key it on the synthesis digest
alone, so whichever runs first populates the artifact the other reuses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.arch.pathkernel import kernel_for
from repro.contam import ContaminationTracker, wash_requirements
from repro.contam.necessity import NecessityReport
from repro.core.config import PDWConfig
from repro.core.pathgen import candidate_paths, integration_candidates
from repro.obs import metrics
from repro.core.plan import WashOperation, WashPlan
from repro.core.schedule_ilp import IlpWashOutcome, WashScheduleIlp
from repro.degrade.model import Degradation, derive, info_from, parse_spec
from repro.ilp.solution import SolveStatus
from repro.core.targets import WashCluster, cluster_requirements
from repro.errors import LadderExhausted, WashError
from repro.ilp import SolverPortfolio, faults
from repro.ilp import incremental
from repro.pipeline import ArtifactCache, StageBase, digest_synthesis
from repro.schedule.schedule import Schedule
from repro.schedule.tasks import ScheduledTask, TaskKind
from repro.synth.synthesis import SynthesisResult


@dataclass
class PDWContext:
    """Mutable carrier threading artifacts between PDW stages."""

    synthesis: SynthesisResult
    config: PDWConfig
    #: The run's artifact cache (also holds warm-start incumbents); stays
    #: ``None`` when the caller opted out of caching entirely.
    cache: Optional["ArtifactCache"] = None
    tracker: Optional[ContaminationTracker] = None
    necessity: Optional[NecessityReport] = None
    clusters: List[WashCluster] = field(default_factory=list)
    candidates: Dict[str, List] = field(default_factory=dict)
    outcome: Optional[IlpWashOutcome] = None
    plan: Optional[WashPlan] = None
    #: Resolved chip degradation (derived lazily from ``config.degrade``).
    degradation: Optional[Degradation] = None
    _synthesis_digest: Optional[str] = None

    @property
    def synthesis_digest(self) -> str:
        """Stable digest of the synthesis inputs (computed once)."""
        if self._synthesis_digest is None:
            self._synthesis_digest = digest_synthesis(self.synthesis)
        return self._synthesis_digest

    @property
    def dead_nodes(self) -> FrozenSet[str]:
        """The degraded chip's dead-node set (empty on a healthy chip).

        Derives the :class:`~repro.degrade.model.Degradation` on first
        access when ``config.degrade`` is set; the same resolved set then
        threads through clustering, candidate generation and assembly.
        """
        if not self.config.degrade:
            return frozenset()
        if self.degradation is None:
            self.degradation = derive(
                self.synthesis.chip,
                self.synthesis.schedule,
                parse_spec(self.config.degrade),
            )
        return self.degradation.dead


# ---------------------------------------------------------------------------
# stage implementations
# ---------------------------------------------------------------------------

class ReplayStage(StageBase):
    """Replay the wash-free baseline and index contamination events."""

    name = "replay"
    provides = "tracker"

    def key(self, ctx: PDWContext):
        # Keyed on the synthesis alone so PDW and DAWO share the artifact.
        return ctx.synthesis_digest

    def compute(self, ctx: PDWContext) -> ContaminationTracker:
        return ContaminationTracker(ctx.synthesis.chip, ctx.synthesis.schedule)

    def counters(self, tracker: ContaminationTracker) -> Dict[str, float]:
        return {
            "events": float(len(tracker.events())),
            "contaminated_nodes": float(len(tracker.contaminated_nodes())),
        }


class NecessityStage(StageBase):
    """Type 1/2/3 wash-necessity analysis (Eqs. 9-11)."""

    name = "necessity"
    provides = "necessity"

    def key(self, ctx: PDWContext):
        return (ctx.synthesis_digest, ctx.config.necessity.value)

    def compute(self, ctx: PDWContext) -> NecessityReport:
        return wash_requirements(
            ctx.tracker, ctx.synthesis.assay, ctx.config.necessity
        )

    def counters(self, report: NecessityReport) -> Dict[str, float]:
        return {
            "events": float(report.total_events),
            "required": float(len(report.required)),
            "type1_exempt": float(report.type1_exempt),
            "type2_exempt": float(report.type2_exempt),
            "type3_exempt": float(report.type3_exempt),
            "consumed": float(report.consumed),
        }


class ClusterStage(StageBase):
    """Group the required washes into wash clusters (Section II-C).

    On a degraded chip, requirements sitting *on* a dead node are
    unwashable by definition — they are dropped here and resurface as
    reported uncovered targets on the assembled plan, never as a crash.
    The surviving clusters are merged with the dead set as a routing
    avoid-set so merge feasibility reflects the degraded chip.
    """

    name = "clusters"
    provides = "clusters"

    def key(self, ctx: PDWContext):
        cfg = ctx.config
        return (
            ctx.synthesis_digest,
            cfg.necessity.value,
            cfg.merge_clusters,
            cfg.max_wash_path_mm,
            cfg.degrade,
        )

    def compute(self, ctx: PDWContext) -> List[WashCluster]:
        dead = ctx.dead_nodes
        required = ctx.necessity.required
        if dead:
            required = [r for r in required if r.node not in dead]
        return cluster_requirements(
            ctx.synthesis.chip,
            required,
            merge=ctx.config.merge_clusters,
            max_path_mm=ctx.config.max_wash_path_mm,
            avoid=dead or None,
        )

    def counters(self, clusters: List[WashCluster]) -> Dict[str, float]:
        return {
            "clusters": float(len(clusters)),
            "targets": float(sum(len(c.targets) for c in clusters)),
        }


@dataclass(frozen=True)
class PathgenResult:
    """Candidate pools per cluster plus the routing skips behind them.

    The skip counters (``avoid_relaxed``, ``unroutable_pairs``,
    ``exact_fallbacks``) are part of the cached artifact so the silent
    routing failures inside path generation stay visible in the run
    report even on cache hits.  ``routing_cache_hits`` / ``_misses`` are
    the kernel path-cache deltas accumulated while the pools were built.
    """

    candidates: Dict[str, List]
    skips: Dict[str, int] = field(default_factory=dict)
    routing_cache_hits: int = 0
    routing_cache_misses: int = 0


class PathGenStage(StageBase):
    """Candidate wash paths per cluster (Section II-C, optionally exact).

    Clusters are routed one after another, in their original order.
    """

    name = "pathgen"
    provides = "candidates"

    def key(self, ctx: PDWContext):
        cfg = ctx.config
        return (
            ctx.synthesis_digest,
            cfg.necessity.value,
            cfg.merge_clusters,
            cfg.max_wash_path_mm,
            cfg.max_candidates,
            cfg.path_mode,
            cfg.enable_integration,
            cfg.integration_window_s,
            cfg.degrade,
        )

    def compute(self, ctx: PDWContext) -> PathgenResult:
        chip = ctx.synthesis.chip
        config = ctx.config
        dead = ctx.dead_nodes
        removals = ctx.synthesis.schedule.tasks(TaskKind.REMOVAL)
        window = config.integration_window_s
        kernel = kernel_for(chip)
        hits_before, misses_before = kernel.cache_hits, kernel.cache_misses

        def base_pool(cluster, stats: Dict[str, int]) -> List:
            """The cluster's covering paths, degradation-aware.

            Degraded runs still try the *healthy* pool first: most
            clusters route nowhere near the dead nodes, so their pools —
            and, within one plan, the path-kernel cache entries behind
            them — are reused verbatim, and only the affected clusters
            pay for an avoid-set regeneration.  A cluster no degraded
            route can cover keeps an **empty** pool (counted as
            ``uncovered_clusters``) rather than failing the stage; the
            ILP stage drops it and the plan reports the coverage gap.
            """
            try:
                pool = candidate_paths(
                    chip, sorted(cluster.targets), config.max_candidates, stats=stats
                )
            except WashError:
                if not dead:
                    raise  # healthy chips keep the loud failure mode
                pool = []
            if not dead:
                return pool
            if pool and not any(dead & set(p) for p in pool):
                return pool
            try:
                return candidate_paths(
                    chip,
                    sorted(cluster.targets),
                    config.max_candidates,
                    stats=stats,
                    avoid=dead,
                )
            except WashError:
                stats["uncovered_clusters"] = stats.get("uncovered_clusters", 0) + 1
                return []

        def one_cluster(cluster, stats: Dict[str, int]) -> List:
            pool = base_pool(cluster, stats)
            seen: Set[Tuple[str, ...]] = {tuple(p) for p in pool}
            if not pool:
                return pool
            if config.enable_integration:
                nearby = [
                    rm.path
                    for rm in removals
                    if rm.start <= cluster.deadline + window
                    and rm.end >= cluster.release - window
                ]
                for cand in integration_candidates(
                    chip,
                    sorted(cluster.targets),
                    nearby,
                    stats=stats,
                    avoid=dead or None,
                ):
                    if tuple(cand) not in seen:
                        pool.append(cand)
                        seen.add(tuple(cand))
            if config.path_mode == "exact":
                from repro.core.path_ilp import exact_wash_path

                try:
                    exact = exact_wash_path(chip, sorted(cluster.targets))
                    if dead & set(exact):
                        # The cell ILP knows nothing of dead nodes; a
                        # crossing exact path is unusable on this chip.
                        stats["exact_fallbacks"] = stats.get("exact_fallbacks", 0) + 1
                    elif tuple(exact) not in seen:
                        pool.insert(0, exact)
                        seen.add(tuple(exact))
                except WashError:
                    # Fall back to the greedy pool — but count the skip so
                    # the degraded path quality is visible in the report.
                    stats["exact_fallbacks"] = stats.get("exact_fallbacks", 0) + 1
            return pool

        skips: Dict[str, int] = {}
        candidates = {cluster.id: one_cluster(cluster, skips) for cluster in ctx.clusters}

        hits = kernel.cache_hits - hits_before
        misses = kernel.cache_misses - misses_before
        # Pathgen is the last stage that routes: the LRU is this plan's
        # working memory, so free it before the ILP reaches its peak.  A
        # later plan on the same chip (an ablation variant, a degrade
        # scenario or repair round) routes from empty.
        kernel.clear_cache()
        reg = metrics.registry()
        reg.counter("pdw_routing_cache_hits_total", chip=chip.name).inc(hits)
        reg.counter("pdw_routing_cache_misses_total", chip=chip.name).inc(misses)
        return PathgenResult(
            candidates=candidates,
            skips=skips,
            routing_cache_hits=hits,
            routing_cache_misses=misses,
        )

    def counters(self, result: PathgenResult) -> Dict[str, float]:
        pools = list(result.candidates.values())
        stats = {
            "pools": float(len(pools)),
            "candidates": float(sum(len(p) for p in pools)),
            "routing_cache_hits": float(result.routing_cache_hits),
            "routing_cache_misses": float(result.routing_cache_misses),
        }
        stats.update({k: float(v) for k, v in sorted(result.skips.items())})
        return stats

    def apply(self, ctx: PDWContext, result: PathgenResult) -> None:
        ctx.candidates = result.candidates


class ScheduleIlpStage(StageBase):
    """Build and solve the scheduling ILP (Eqs. 1-8, 16-26).

    When ``config.presolve == "on"`` (the default) the model is built
    through the reduction layer of :mod:`repro.ilp.presolve` — tightened
    bounds, fixed ordering binaries, per-row big-M values.  The reduction
    provably preserves the optimal objective, so at a proving gap
    (``mip_gap=1e-9``) canonical plans are byte-identical either way; at
    the default 1% gap the two formulations may stop at different
    incumbents within that gap.

    Solving goes through the serial :class:`~repro.ilp.SolverPortfolio`
    degradation ladder; when every backend rung fails
    (:class:`LadderExhausted`) the stage falls back to greedy sweep-line
    assembly so a fault-injected or solver-less run still produces a
    valid, degraded plan.

    Warm start: structurally identical jobs (same synthesis and
    candidate knobs, any objective weights) start from the previous
    winner's assignment in the artifact cache, which — once vetted
    against the freshly built model — primes the branch-and-bound rung.
    HiGHS accepts no starting point, so healthy primary-rung outputs are
    unaffected.
    """

    name = "ilp"
    provides = "outcome"

    def key(self, ctx: PDWContext):
        # The outcome depends on every config field (weights, limits, ...)
        # plus the solver-altering environment (fault injection / forced
        # rung / presolve toggle) — none of which may poison the clean-run
        # cache.
        return (ctx.synthesis_digest, ctx.config, faults.environment_token())

    def compute(self, ctx: PDWContext) -> IlpWashOutcome:
        # Clusters whose degraded candidate pool came up empty cannot be
        # modeled (the ILP demands a candidate per cluster); they are
        # dropped here and resurface as the plan's uncovered targets.
        covered = [c for c in ctx.clusters if ctx.candidates.get(c.id)]
        if not covered:
            return self._empty_outcome(ctx)
        solve_ctx = ctx
        if len(covered) != len(ctx.clusters):
            solve_ctx = dataclasses.replace(ctx, clusters=covered)

        ilp = WashScheduleIlp(
            ctx.synthesis.chip,
            ctx.synthesis.schedule,
            solve_ctx.clusters,
            ctx.candidates,
            ctx.config,
        )
        ilp.ensure_built()
        cache = ctx.cache
        structure = incremental.structure_digest(ctx.synthesis_digest, ctx.config)
        payload = incremental.load_incumbent(cache, structure)
        if payload is None and ctx.config.degrade:
            # Degraded re-solves (the online repair loop above all)
            # warm-start from the *healthy* twin's winning assignment
            # when no degraded incumbent exists yet: most variables
            # survive the delta, and ``adopt_incumbent`` vets the
            # assignment against the degraded constraints, so a
            # stale/incompatible incumbent degrades to a cold solve.
            healthy = incremental.structure_digest(
                ctx.synthesis_digest,
                dataclasses.replace(ctx.config, degrade=""),
            )
            payload = incremental.load_incumbent(cache, healthy)
        if payload is None:
            incremental.observe("miss")
            incumbent = None
        else:
            incumbent = incremental.adopt_incumbent(ilp.model, payload["values"])
        portfolio = SolverPortfolio.from_config(ctx.config, incumbent=incumbent)
        try:
            outcome = ilp.solve(portfolio)
        except LadderExhausted as exc:
            from repro.core.fallback import greedy_outcome

            return greedy_outcome(solve_ctx, exc.attempts)
        if ilp.last_solution is not None:
            incremental.store_incumbent(cache, structure, ilp.last_solution, ctx.config)
        return outcome

    @staticmethod
    def _empty_outcome(ctx: PDWContext) -> IlpWashOutcome:
        """Outcome for a degraded run where no cluster is coverable.

        The baseline schedule is kept verbatim (it never touches dead
        nodes by construction); every required target becomes a reported
        coverage gap at assembly.
        """
        return IlpWashOutcome(
            status=SolveStatus.FEASIBLE,
            objective=0.0,
            solve_time_s=0.0,
            starts={t.id: t.start for t in ctx.synthesis.schedule.tasks()},
            wash_starts={},
            wash_paths={},
            wash_durations={},
            rung="degraded-skip",
            model_stats="no coverable clusters on the degraded chip",
        )

    def counters(self, outcome: IlpWashOutcome) -> Dict[str, float]:
        stats = {
            "solve_time_s": round(outcome.solve_time_s, 6),
            "build_time_s": round(outcome.build_time_s, 6),
            "objective": round(outcome.objective, 6),
            "variables": float(outcome.n_variables),
            "binaries": float(outcome.n_binaries),
            "constraints": float(outcome.n_constraints),
            "absorbed": float(len(outcome.absorbed)),
            "rungs_tried": float(len(outcome.attempts)),
        }
        # Only reported when they fired, so the counter set of a plain
        # run stays fixed (plan JSON embeds these).
        if outcome.warm_started:
            stats["warm_started"] = 1.0
        if outcome.mip_gap is not None:
            stats["mip_gap"] = outcome.mip_gap
        if outcome.presolve_time_s > 0 or outcome.presolve_dropped_constraints:
            stats["presolve_time_s"] = round(outcome.presolve_time_s, 6)
            stats["presolve_fixed_binaries"] = float(outcome.presolve_fixed_binaries)
            stats["presolve_dropped_constraints"] = float(
                outcome.presolve_dropped_constraints
            )
            stats["presolve_dropped_candidates"] = float(
                outcome.presolve_dropped_candidates
            )
        return stats

    def detail(self, outcome: IlpWashOutcome) -> str:
        return f"{outcome.status.value} via {outcome.rung}; {outcome.model_stats}"


class AssembleStage(StageBase):
    """Materialize the wash-aware schedule and plan from the ILP outcome.

    Cheap and final — never cached (``key`` stays ``None``), so the
    returned plan is always freshly built and safe to mutate.
    """

    name = "assemble"
    provides = "plan"

    def compute(self, ctx: PDWContext) -> WashPlan:
        outcome = ctx.outcome
        baseline = ctx.synthesis.schedule
        schedule = Schedule()
        absorbed_by: Dict[str, List[str]] = {}
        for rm_id, cluster_id in outcome.absorbed.items():
            absorbed_by.setdefault(cluster_id, []).append(rm_id)
        for task in baseline.tasks():
            if task.id in outcome.absorbed:
                continue
            schedule.add(task.at(outcome.starts[task.id]))

        washes: List[WashOperation] = []
        # Clusters absent from the outcome were dropped as uncoverable on
        # a degraded chip; they become reported coverage gaps below.
        for cluster in ctx.clusters:
            if cluster.id not in outcome.wash_paths:
                continue
            path = outcome.wash_paths[cluster.id]
            start = outcome.wash_starts[cluster.id]
            duration = outcome.wash_durations[cluster.id]
            schedule.add(
                ScheduledTask(
                    id=f"wash:{cluster.id}",
                    kind=TaskKind.WASH,
                    start=start,
                    duration=duration,
                    path=path,
                )
            )
            washes.append(
                WashOperation(
                    id=cluster.id,
                    targets=cluster.targets,
                    path=path,
                    start=start,
                    duration=duration,
                    absorbed_removals=tuple(sorted(absorbed_by.get(cluster.id, []))),
                )
            )

        report = ctx.necessity
        notes = {
            "ilp_objective": outcome.objective,
            "necessity_events": float(report.total_events),
            "type1_exempt": float(report.type1_exempt),
            "type2_exempt": float(report.type2_exempt),
            "type3_exempt": float(report.type3_exempt),
            "requirements": float(len(report.required)),
        }

        degradation_info = None
        if ctx.config.degrade:
            ctx.dead_nodes  # force the lazy derive (may sample nothing)
            required = {r.node for r in report.required}
            washed = {t for w in washes for t in w.targets}
            uncovered = required - washed
            degradation_info = info_from(ctx.degradation, uncovered, len(required))
            notes["uncovered_targets"] = float(len(uncovered))
            notes["coverage"] = round(degradation_info.coverage, 4)

        return WashPlan(
            method="PDW",
            chip=ctx.synthesis.chip,
            schedule=schedule,
            washes=washes,
            baseline_schedule=baseline,
            solver_status=outcome.status.value,
            solver_rung=outcome.rung,
            solve_time_s=outcome.solve_time_s,
            notes=notes,
            degradation=degradation_info,
        )

    def counters(self, plan: WashPlan) -> Dict[str, float]:
        return {
            "washes": float(plan.n_wash),
            "integrated_removals": float(plan.integrated_removals),
        }


#: Shared singletons — the stages are stateless.
REPLAY_STAGE = ReplayStage()
NECESSITY_STAGE = NecessityStage()
CLUSTER_STAGE = ClusterStage()
PATHGEN_STAGE = PathGenStage()
SCHEDULE_ILP_STAGE = ScheduleIlpStage()
ASSEMBLE_STAGE = AssembleStage()

#: The PDW method as an ordered stage chain.
PDW_PIPELINE = (
    REPLAY_STAGE,
    NECESSITY_STAGE,
    CLUSTER_STAGE,
    PATHGEN_STAGE,
    SCHEDULE_ILP_STAGE,
    ASSEMBLE_STAGE,
)
