"""The DAWO baseline [10], re-implemented per the paper's description.

"In this method, wash operations are first introduced based on the
positions of contaminated spots.  Next, the breadth-first-search algorithm
is employed to compute wash paths on the chip.  Moreover, a sweep-line
method is used to assign wash operations to appropriate time intervals."
(Section IV.)

Concretely:

* **no necessity analysis** — any contaminated spot that is reused must be
  washed (no Type 2/3 exemptions),
* **no resource sharing** — one wash operation per contaminating task's
  spot group; clusters are never merged,
* **BFS paths** — the wash path runs from the nearest flow port through the
  spots to the nearest waste port, without global optimization over port
  pairs,
* **sweep-line timing** — tasks are replayed in baseline order; each wash
  is inserted at the earliest conflict-free interval before its blocking
  task, delaying the blocked task (and transitively the assay) whenever the
  chip is busy,
* **no removal integration** — excess removals always execute separately.

The generic :class:`SweepLineReplayer` is shared with the eager
wash-immediately ablation baseline (:mod:`repro.baselines.immediate`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.chip import FlowPath
from repro.arch.routing import Router
from repro.contam import ContaminationTracker, NecessityPolicy
from repro.core.config import PDWConfig
from repro.core.plan import WashOperation, WashPlan
from repro.core.stages import NECESSITY_STAGE, REPLAY_STAGE, PDWContext
from repro.core.targets import WashCluster, cluster_requirements, merge_by_blocker
from repro.errors import RoutingError, WashError
from repro.obs.trace import span
from repro.pipeline import ArtifactCache, PipelineRun, StageBase
from repro.schedule.schedule import Schedule
from repro.schedule.tasks import ScheduledTask, TaskKind
from repro.schedule.timeline import Timeline
from repro.synth.synthesis import SynthesisResult


class SweepLineReplayer:
    """Replay a baseline schedule inserting washes heuristically.

    ``eager=False`` (DAWO): each wash is placed as late as the sweep allows,
    just before its first blocking task.  ``eager=True`` (IMMEDIATE): each
    wash is placed as soon as its residues exist.
    """

    def __init__(
        self,
        synthesis: SynthesisResult,
        clusters: Sequence[WashCluster],
        eager: bool = False,
        wash_paths: Optional[Dict[str, FlowPath]] = None,
    ):
        self.synthesis = synthesis
        self.chip = synthesis.chip
        self.router = Router(synthesis.chip)
        self.clusters = list(clusters)
        self.eager = eager
        # Callers with pre-routed paths (the greedy solver fallback) pass
        # them in; DAWO itself routes per its BFS recipe.
        self.wash_paths: Dict[str, FlowPath] = (
            dict(wash_paths)
            if wash_paths is not None
            else {c.id: self._bfs_path(sorted(c.targets)) for c in self.clusters}
        )

    # -- wash construction ---------------------------------------------------------

    def _bfs_path(self, targets: List[str]) -> FlowPath:
        """Nearest flow port -> spots -> nearest waste port (hop-count BFS)."""
        anchor = targets[0]
        fp = self.router.nearest_flow_port(anchor)
        wp = self.router.nearest_waste_port(anchor)
        try:
            return self.router.path_through(fp, targets, wp)
        except RoutingError as exc:
            raise WashError(f"cannot route a wash over {targets}") from exc

    # -- replay -----------------------------------------------------------------------

    def run(self, method: str) -> WashPlan:
        """Rebuild the schedule with washes inserted; return the plan."""
        baseline = self.synthesis.schedule
        order = sorted(baseline.tasks(), key=lambda t: (t.start, t.end, t.id))
        predecessors = _precedence_map(baseline)

        by_blocker: Dict[str, List[WashCluster]] = {}
        by_last_source: Dict[str, List[WashCluster]] = {}
        for cluster in self.clusters:
            first_blocker = min(
                cluster.blocking_tasks, key=lambda b: baseline.get(b).start
            )
            by_blocker.setdefault(first_blocker, []).append(cluster)
            last_source = max(
                cluster.source_tasks, key=lambda s: baseline.get(s).end
            )
            by_last_source.setdefault(last_source, []).append(cluster)

        timeline = Timeline()
        schedule = Schedule()
        actual_end: Dict[str, int] = {}
        wash_span: Dict[str, Tuple[int, int]] = {}
        placed: Set[str] = set()
        # Baseline relative order on every chip node is preserved: the
        # necessity analysis was computed against that order, and the
        # sweep-line may only *delay* tasks, never reorder them.
        node_release: Dict[str, int] = {}

        for task in order:
            if not self.eager:
                for cluster in by_blocker.get(task.id, ()):
                    self._place_wash(
                        cluster, actual_end, timeline, schedule,
                        wash_span, placed, node_release,
                    )
            ready = 0
            for pred in predecessors.get(task.id, ()):
                ready = max(ready, actual_end[pred])
            for node in task.occupied_nodes:
                ready = max(ready, node_release.get(node, 0))
            for cluster in self.clusters:
                if task.id in cluster.blocking_tasks and cluster.id in placed:
                    ready = max(ready, wash_span[cluster.id][1])
            start = timeline.earliest_fit(task.occupied_nodes, ready, task.duration)
            timeline.occupy(task.occupied_nodes, start, task.duration)
            schedule.add(task.at(start))
            actual_end[task.id] = start + task.duration
            for node in task.occupied_nodes:
                node_release[node] = max(node_release.get(node, 0), start + task.duration)
            if self.eager:
                for cluster in by_last_source.get(task.id, ()):
                    self._place_wash(
                        cluster, actual_end, timeline, schedule,
                        wash_span, placed, node_release,
                    )

        for cluster in self.clusters:  # defensive: orphaned clusters run last
            self._place_wash(
                cluster, actual_end, timeline, schedule, wash_span, placed,
                node_release,
            )

        washes = [
            WashOperation(
                id=c.id,
                targets=c.targets,
                path=self.wash_paths[c.id],
                start=wash_span[c.id][0],
                duration=wash_span[c.id][1] - wash_span[c.id][0],
            )
            for c in self.clusters
        ]
        return WashPlan(
            method=method,
            chip=self.chip,
            schedule=schedule,
            washes=washes,
            baseline_schedule=baseline,
            solver_status="heuristic",
            solver_rung="heuristic",
        )

    def _place_wash(
        self,
        cluster: WashCluster,
        actual_end: Dict[str, int],
        timeline: Timeline,
        schedule: Schedule,
        wash_span: Dict[str, Tuple[int, int]],
        placed: Set[str],
        node_release: Dict[str, int],
    ) -> None:
        if cluster.id in placed:
            return
        path = self.wash_paths[cluster.id]
        ready = 0
        for source in cluster.source_tasks:
            # Sources precede their blockers in baseline order, so they
            # have been replayed before the wash is demanded.
            ready = max(ready, actual_end[source])
        for node in path:
            ready = max(ready, node_release.get(node, 0))
        duration = self.chip.wash_time_s(path)
        start = timeline.earliest_fit(path, ready, duration)
        timeline.occupy(path, start, duration)
        schedule.add(
            ScheduledTask(
                id=f"wash:{cluster.id}",
                kind=TaskKind.WASH,
                start=start,
                duration=duration,
                path=path,
            )
        )
        for node in path:
            node_release[node] = max(node_release.get(node, 0), start + duration)
        wash_span[cluster.id] = (start, start + duration)
        placed.add(cluster.id)


class DawoClusterStage(StageBase):
    """DAWO's demand-driven grouping: one cluster per first blocking task."""

    name = "clusters"
    provides = "clusters"

    def key(self, ctx: PDWContext):
        return (ctx.synthesis_digest, "dawo", ctx.config.necessity.value)

    def compute(self, ctx: PDWContext) -> List[WashCluster]:
        baseline = ctx.synthesis.schedule
        clusters = cluster_requirements(
            ctx.synthesis.chip, ctx.necessity.required, merge=False
        )
        first_blocker = {
            c.id: min(c.blocking_tasks, key=lambda b: baseline.get(b).start)
            for c in clusters
        }
        return merge_by_blocker(ctx.synthesis.chip, clusters, first_blocker)

    def counters(self, clusters: List[WashCluster]) -> Dict[str, float]:
        return {
            "clusters": float(len(clusters)),
            "targets": float(sum(len(c.targets) for c in clusters)),
        }


class SweepLineStage(StageBase):
    """BFS wash paths + sweep-line placement, assembling the DAWO plan."""

    name = "sweepline"
    provides = "plan"

    def key(self, ctx: PDWContext):
        return (ctx.synthesis_digest, "dawo", ctx.config.necessity.value)

    def compute(self, ctx: PDWContext) -> WashPlan:
        replayer = SweepLineReplayer(ctx.synthesis, ctx.clusters, eager=False)
        return replayer.run(method="DAWO")

    def counters(self, plan: WashPlan) -> Dict[str, float]:
        return {
            "washes": float(plan.n_wash),
            "t_assay_s": float(plan.t_assay),
        }


DAWO_CLUSTER_STAGE = DawoClusterStage()
SWEEPLINE_STAGE = SweepLineStage()

#: The DAWO method as an ordered stage chain (the replay is shared with
#: PDW's, :data:`repro.core.stages.PDW_PIPELINE`).
DAWO_PIPELINE = (
    REPLAY_STAGE,
    NECESSITY_STAGE,
    DAWO_CLUSTER_STAGE,
    SWEEPLINE_STAGE,
)

#: Config carrier for the DAWO pipeline: only the necessity policy matters.
DAWO_CONFIG = PDWConfig(necessity=NecessityPolicy.REUSE_CONFLICT)
_DAWO_CONFIG = DAWO_CONFIG


class DelayAwareWashOptimizer:
    """DAWO: demand-driven washes with BFS paths and sweep-line timing.

    Rebased onto the same staged pipeline as PDW: the contamination
    *replay* artifact is keyed identically to PDW's, so the two methods
    share it (in-process via ``tracker=``, across processes via ``cache``)
    instead of each re-replaying the baseline schedule.
    """

    def __init__(
        self,
        synthesis: SynthesisResult,
        cache: Optional[ArtifactCache] = None,
        tracker: Optional[ContaminationTracker] = None,
    ):
        self.synthesis = synthesis
        self.cache = cache
        self.tracker = tracker

    def run(self) -> WashPlan:
        """Build the DAWO wash plan."""
        with span("dawo", assay=self.synthesis.assay.name):
            return self._run()

    def _run(self) -> WashPlan:
        ctx = PDWContext(synthesis=self.synthesis, config=_DAWO_CONFIG)
        run = PipelineRun(label=f"DAWO:{self.synthesis.assay.name}", cache=self.cache)

        if self.tracker is not None:
            ctx.tracker = self.tracker
            run.provided(REPLAY_STAGE.name, REPLAY_STAGE.counters(self.tracker))
        else:
            ctx.tracker = run.run_stage(REPLAY_STAGE, ctx)
        ctx.necessity = run.run_stage(NECESSITY_STAGE, ctx)
        ctx.clusters = run.run_stage(DAWO_CLUSTER_STAGE, ctx)
        plan = run.run_stage(SWEEPLINE_STAGE, ctx)

        plan.notes["necessity_events"] = float(ctx.necessity.total_events)
        plan.notes["requirements"] = float(len(ctx.necessity.required))
        plan.report = run.report
        plan.notes.update(run.report.flat())
        return plan


def _precedence_map(schedule: Schedule) -> Dict[str, List[str]]:
    """Structural predecessors of each task (Eqs. 2, 4, 5 analogs)."""
    op_task: Dict[str, ScheduledTask] = {
        t.op_id: t for t in schedule.tasks() if t.kind is TaskKind.OPERATION
    }
    by_edge: Dict[Tuple[str, str], Dict[TaskKind, ScheduledTask]] = {}
    for task in schedule.tasks():
        if task.edge is not None:
            by_edge.setdefault(task.edge, {})[task.kind] = task

    preds: Dict[str, List[str]] = {}

    def add(task: Optional[ScheduledTask], pred: Optional[ScheduledTask]) -> None:
        if task is not None and pred is not None:
            preds.setdefault(task.id, []).append(pred.id)

    for (src, dst), group in by_edge.items():
        transport = group.get(TaskKind.TRANSPORT)
        removal = group.get(TaskKind.REMOVAL)
        waste = group.get(TaskKind.WASTE)
        producer = op_task.get(src)
        consumer = op_task.get(dst)
        add(transport, producer)
        add(removal, transport)
        if removal is not None:
            add(consumer, removal)
        elif transport is not None:
            add(consumer, transport)
        else:
            add(consumer, producer)
        add(waste, producer)
    return preds


def dawo_plan(
    synthesis: SynthesisResult,
    verify: bool = True,
    cache: Optional[ArtifactCache] = None,
    tracker: Optional[ContaminationTracker] = None,
) -> WashPlan:
    """Convenience wrapper: run DAWO on a synthesis result."""
    plan = DelayAwareWashOptimizer(synthesis, cache=cache, tracker=tracker).run()
    if verify:
        from repro.core.pdw import verify_plan
        from repro.sim.validate import validate_plan

        verify_plan(plan)
        validate_plan(plan, synthesis)
    return plan
