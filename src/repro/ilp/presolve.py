"""Solver-independent model reduction for the PDW scheduling ILP.

The monolithic model stays tractable only because the baseline order is
fixed (see :mod:`repro.core.schedule_ilp`), and that fixed order is also
an untapped source of *implied* structure: if task ``p`` precedes (by a
chain of kept precedence/order rows) a source task of wash cluster ``c``,
then ``tw_c >= end(p)`` is already entailed by the model — the whole
big-M disjunction pair for ``(c, p)`` and its ordering binary ``mu`` are
dead weight.  This module computes that structure once, before the model
is built, so :class:`~repro.core.schedule_ilp.WashScheduleIlp` can skip
the dead rows and binaries instead of emitting them.

Reduction rules (each preserves the feasible region's projection onto the
surviving variables, hence the optimal plans — see DESIGN.md §16):

1. **Bound tightening** — earliest/latest-start windows per task and per
   wash via longest-path propagation over the precedence/order DAG,
   plus a tightened lower bound (``t_floor``) for ``T_assay``.
2. **Ordering-binary fixing** — a wash/task or wash/wash pair whose
   relative order is provable (by DAG reachability through the wash's
   source/blocking tasks, or numerically: latest end of A <= earliest
   start of B) needs no ``mu``/``eta`` binary and no big-M rows.
3. **Per-row big-M tightening** — surviving disjunction rows use the
   smallest M the propagated windows support instead of the global
   horizon.
4. **Transitive reduction** — a precedence/order row entailed by a chain
   of other kept rows (``a -> m -> ... -> b``) is dropped; duplicates
   (the same pair emitted by both the precedence and the baseline-order
   pass) collapse to one row.
5. **Dominated-candidate elimination** — a candidate wash path that is
   strictly longer than a same-cluster alternative with a node subset,
   no worse wash time and no smaller removal coverage can never appear
   in an optimal plan (only applied while ``beta > 0``, so objective
   ties cannot change which plan is reported).

Everything here is advisory: :func:`analyze` returns a
:class:`PresolveInfo` and the model builder consults it row by row.  With
presolve disabled (``--presolve off`` / ``PDWConfig(presolve="off")``) the
builder emits the unreduced constraint system, and the reduced and raw
models must produce byte-identical canonical plans — an invariant CI
checks on every suite run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.schedule.tasks import ScheduledTask, TaskKind

#: An ordered pair of tasks whose row reads ``t[succ] >= end(pred)``.
OrderPair = Tuple[ScheduledTask, ScheduledTask, str]


# ---------------------------------------------------------------------------
# precedence / baseline-order pair generation (shared with the model builder)
# ---------------------------------------------------------------------------

def precedence_pairs(tasks: Sequence[ScheduledTask]) -> Iterator[OrderPair]:
    """Yield the Eq. 2/4/5 precedence rows as ``(pred, succ, name)``.

    This is the single source of truth for the precedence structure: the
    model builder emits exactly these rows and the presolve DAG is built
    from exactly these pairs, so the two can never drift apart.
    """
    op_task: Dict[str, ScheduledTask] = {
        t.op_id: t for t in tasks if t.kind is TaskKind.OPERATION
    }
    by_edge: Dict[Tuple[str, str], Dict[TaskKind, ScheduledTask]] = {}
    for task in tasks:
        if task.edge is not None:
            by_edge.setdefault(task.edge, {})[task.kind] = task

    for edge, group in by_edge.items():
        src, dst = edge
        transport = group.get(TaskKind.TRANSPORT)
        removal = group.get(TaskKind.REMOVAL)
        waste = group.get(TaskKind.WASTE)
        producer = op_task.get(src)
        if transport is not None and producer is not None:
            yield producer, transport, f"prec_tr[{transport.id}]"
        if removal is not None and transport is not None:
            yield transport, removal, f"prec_rm[{removal.id}]"
        consumer = op_task.get(dst)
        if consumer is not None:
            if removal is not None:
                yield removal, consumer, f"prec_op_rm[{consumer.id},{removal.id}]"
            elif transport is not None:
                yield transport, consumer, f"prec_op_tr[{consumer.id},{transport.id}]"
            elif producer is not None:
                yield producer, consumer, f"prec_op_op[{consumer.id},{producer.id}]"
        if waste is not None and producer is not None:
            yield producer, waste, f"prec_ws[{waste.id}]"


def baseline_order_pairs(tasks: Sequence[ScheduledTask]) -> Iterator[OrderPair]:
    """Yield the fixed baseline-order rows (Eqs. 3, 8) as ``(a, b, name)``."""
    ordered = sorted(tasks, key=lambda t: (t.start, t.end, t.id))
    node_sets = [set(t.occupied_nodes) for t in ordered]
    for i, a in enumerate(ordered):
        nodes_a = node_sets[i]
        for j in range(i + 1, len(ordered)):
            b = ordered[j]
            if a.kind is TaskKind.OPERATION and b.kind is TaskKind.OPERATION:
                if a.device != b.device:
                    continue
            elif not (nodes_a & node_sets[j]):
                continue
            yield a, b, f"order[{a.id},{b.id}]"


# ---------------------------------------------------------------------------
# the presolve result
# ---------------------------------------------------------------------------

@dataclass
class PresolveInfo:
    """Propagated bounds + provable structure, consumed by the builder.

    The reduction counters (``fixed_binaries``, ``dropped_constraints``,
    ``dropped_candidates``) are incremented *while building* — presolve
    proves what may be skipped, the builder records what actually was.
    """

    horizon: int
    est: Dict[str, int] = field(default_factory=dict)
    lst: Dict[str, int] = field(default_factory=dict)
    #: Full (unabsorbed) duration per task, for latest-end computations.
    duration: Dict[str, int] = field(default_factory=dict)
    wash_est: Dict[str, int] = field(default_factory=dict)
    wash_lst: Dict[str, int] = field(default_factory=dict)
    min_wash: Dict[str, float] = field(default_factory=dict)
    max_wash: Dict[str, float] = field(default_factory=dict)
    #: Surviving candidate indices per cluster (original pool positions,
    #: so ``x[cluster,i]`` names and plan extraction stay aligned).
    survivors: Dict[str, List[int]] = field(default_factory=dict)
    #: Removal-task ids a wash can legally absorb (psi may be 1).
    absorbable: Set[str] = field(default_factory=set)
    #: Precedence/order pairs entailed by a chain of other kept rows.
    redundant_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    #: cluster id -> task ids provably ordered before / after its wash.
    before_wash: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    after_wash: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: (a_id, b_id) pairs (model emission order) with a provable wash
    #: order; the eta binary and every ww row of the pair are dead.
    wash_order: Set[Tuple[str, str]] = field(default_factory=set)
    #: Tightened lower bound for ``T_assay``.
    t_floor: int = 0
    fixed_binaries: int = 0
    dropped_constraints: int = 0
    dropped_candidates: int = 0
    presolve_time_s: float = 0.0

    # -- latest-end / big-M helpers (all capped by the global horizon so a
    # -- degenerate window can never yield a *looser* row than before) ----

    def lend(self, task_id: str) -> int:
        """Latest end of a task, using its full (unabsorbed) duration."""
        return self.lst[task_id] + self.duration[task_id]

    def m_wash_after_task(self, cluster_id: str, task_id: str) -> float:
        """M for ``w_after``: covers ``lst(task) + d - est(wash)``."""
        return min(float(self.horizon), float(self.lend(task_id) - self.wash_est[cluster_id]))

    def m_task_after_wash(self, cluster_id: str, task_id: str) -> float:
        """M for ``w_before``/``psi_before``: the wash may end as late as
        ``wash_lst + max_wash`` while the task starts no earlier than est."""
        return min(
            float(self.horizon),
            self.wash_lst[cluster_id] + self.max_wash[cluster_id] - self.est[task_id],
        )

    def m_wash_after_wash(self, first_id: str, second_id: str) -> float:
        """M for a ww row enforcing ``tw(second) >= tw(first) + dur(first)``."""
        return min(
            float(self.horizon),
            self.wash_lst[first_id] + self.max_wash[first_id] - self.wash_est[second_id],
        )


def trivial_info(horizon: int, tasks: Sequence[ScheduledTask],
                 cluster_ids: Sequence[str]) -> PresolveInfo:
    """A no-reduction :class:`PresolveInfo` (defensive fallback)."""
    info = PresolveInfo(horizon=horizon)
    for t in tasks:
        info.est[t.id] = int(t.start)
        info.lst[t.id] = horizon
        info.duration[t.id] = int(t.duration)
    for cid in cluster_ids:
        info.wash_est[cid] = 0
        info.wash_lst[cid] = horizon
    info.t_floor = 0
    return info


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _toposort(ids: List[str], edges: Set[Tuple[str, str]]) -> Optional[List[str]]:
    """Kahn toposort; ``None`` if the pair graph has a cycle."""
    indeg = {i: 0 for i in ids}
    succs: Dict[str, List[str]] = {i: [] for i in ids}
    for a, b in edges:
        succs[a].append(b)
        indeg[b] += 1
    ready = sorted(i for i in ids if indeg[i] == 0)
    out: List[str] = []
    while ready:
        node = ready.pop()
        out.append(node)
        for s in succs[node]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort()
    return out if len(out) == len(ids) else None


def analyze(
    chip,
    tasks: Sequence[ScheduledTask],
    clusters: Sequence,
    candidates: Dict[str, List],
    config,
    horizon: int,
) -> PresolveInfo:
    """Compute bounds, provable orders and surviving candidates.

    Pure analysis over the same inputs the model builder sees; nothing
    here touches a :class:`~repro.ilp.model.Model`.
    """
    started = time.perf_counter()
    cluster_ids = [c.id for c in clusters]
    info = PresolveInfo(horizon=int(horizon))
    for t in tasks:
        info.duration[t.id] = int(t.duration)

    # -- 5. dominated candidates (strict length improvement only, and only
    # while the length weight can break the tie in the survivor's favour).
    removals = [t for t in tasks if t.kind is TaskKind.REMOVAL]
    rm_nodes = {rm.id: set(rm.path or ()) for rm in removals}
    for cluster in clusters:
        pool = candidates[cluster.id]
        traits = []
        for cand in pool:
            nodes = set(cand)
            cover = frozenset(r for r, rn in rm_nodes.items() if rn <= nodes)
            traits.append((nodes, cover, chip.wash_time_s(cand), chip.path_length_mm(cand)))
        survivors = list(range(len(pool)))
        if getattr(config, "beta", 0.0) > 0.0 and len(pool) > 1:
            kept = []
            for bi, (bn, bcov, bwt, blen) in enumerate(traits):
                dominated = any(
                    ai != bi and an <= bn and acov >= bcov and awt <= bwt and alen < blen
                    for ai, (an, acov, awt, alen) in enumerate(traits)
                )
                if not dominated:
                    kept.append(bi)
            # Never empty: strict-length domination cannot be cyclic.
            survivors = kept
            info.dropped_candidates += len(pool) - len(kept)
        info.survivors[cluster.id] = survivors
        times = [traits[i][2] for i in survivors]
        info.min_wash[cluster.id] = min(times)
        info.max_wash[cluster.id] = max(times)

    # -- which removals a wash may legally absorb (mirrors the psi rules:
    # a surviving covering candidate must exist and the removal's edge
    # must carry both a transport and a consumer, else psi is forced 0).
    if getattr(config, "enable_integration", True):
        op_task = {t.op_id: t for t in tasks if t.kind is TaskKind.OPERATION}
        by_edge: Dict[Tuple[str, str], Dict[TaskKind, ScheduledTask]] = {}
        for t in tasks:
            if t.edge is not None:
                by_edge.setdefault(t.edge, {})[t.kind] = t
        for rm in removals:
            nodes = rm_nodes[rm.id]
            covered = any(
                nodes <= set(candidates[c.id][i])
                for c in clusters
                for i in info.survivors[c.id]
            )
            if not covered:
                continue
            group = by_edge.get(rm.edge or ("", ""), {})
            transport = group.get(TaskKind.TRANSPORT)
            consumer = op_task.get(rm.edge[1]) if rm.edge else None
            if transport is not None and consumer is not None:
                info.absorbable.add(rm.id)

    # Minimum effective duration: an absorbable removal may shrink to 0.
    mindur = {
        t.id: (0 if t.id in info.absorbable else int(t.duration)) for t in tasks
    }

    # -- the precedence/order DAG (deduplicated pair set) -----------------
    pairs: Set[Tuple[str, str]] = set()
    for a, b, _ in precedence_pairs(tasks):
        pairs.add((a.id, b.id))
    for a, b, _ in baseline_order_pairs(tasks):
        pairs.add((a.id, b.id))
    ids = [t.id for t in tasks]
    topo = _toposort(ids, pairs)
    if topo is None:  # defensive: a cyclic pair graph proves nothing
        fallback = trivial_info(int(horizon), tasks, cluster_ids)
        fallback.survivors = info.survivors
        fallback.min_wash = info.min_wash
        fallback.max_wash = info.max_wash
        fallback.absorbable = info.absorbable
        fallback.dropped_candidates = info.dropped_candidates
        fallback.presolve_time_s = time.perf_counter() - started
        return fallback

    task_by_id = {t.id: t for t in tasks}
    succs: Dict[str, List[str]] = {i: [] for i in ids}
    preds: Dict[str, List[str]] = {i: [] for i in ids}
    for a, b in pairs:
        succs[a].append(b)
        preds[b].append(a)

    # -- 1. bound propagation --------------------------------------------
    # est: any feasible point has t >= baseline start, and each pair row
    # forces t[succ] >= t[pred] + effective duration (>= mindur).
    est = {i: int(task_by_id[i].start) for i in ids}
    for node in topo:
        for s in succs[node]:
            est[s] = max(est[s], est[node] + mindur[node])
    # lst: T_assay <= horizon and T_assay >= t + mindur cap every start;
    # pair rows propagate the cap backwards.
    lst = {i: int(horizon) - mindur[i] for i in ids}
    for node in reversed(topo):
        for p in preds[node]:
            lst[p] = min(lst[p], lst[node] - mindur[p])
    info.est, info.lst = est, lst

    # -- reachability bitsets over topo positions ------------------------
    pos = {tid: k for k, tid in enumerate(topo)}
    desc = {tid: 0 for tid in topo}
    for tid in reversed(topo):
        acc = 0
        for s in succs[tid]:
            acc |= desc[s] | (1 << pos[s])
        desc[tid] = acc
    anc = {tid: 0 for tid in topo}
    for tid in topo:
        acc = 0
        for p in preds[tid]:
            acc |= anc[p] | (1 << pos[p])
        anc[tid] = acc

    # -- 4. transitive reduction -----------------------------------------
    for a, b in pairs:
        target = 1 << pos[b]
        for m in succs[a]:
            if m != b and (desc[m] | (1 << pos[m])) & target:
                info.redundant_pairs.add((a, b))
                break

    # -- wash windows ------------------------------------------------------
    for cluster in clusters:
        cid = cluster.id
        w_est = 0
        for sid in cluster.source_tasks:
            if sid in est:
                w_est = max(w_est, est[sid] + mindur[sid])
        w_lst = float(horizon) - info.min_wash[cid]
        for bid in cluster.blocking_tasks:
            if bid in lst:
                w_lst = min(w_lst, lst[bid] - info.min_wash[cid])
        info.wash_est[cid] = int(w_est)
        info.wash_lst[cid] = int(math.floor(w_lst))

    # Defensive: a crossed window would mean the propagated bounds proved
    # the baseline infeasible, which the always-feasible formulation rules
    # out — treat it as a propagation bug and keep only the safe parts.
    crossed = any(est[i] > lst[i] for i in ids) or any(
        info.wash_est[cid] > info.wash_lst[cid] for cid in cluster_ids
    )
    if crossed:
        fallback = trivial_info(int(horizon), tasks, cluster_ids)
        fallback.survivors = info.survivors
        fallback.min_wash = info.min_wash
        fallback.max_wash = info.max_wash
        fallback.absorbable = info.absorbable
        fallback.dropped_candidates = info.dropped_candidates
        fallback.presolve_time_s = time.perf_counter() - started
        return fallback

    # -- T_assay floor -----------------------------------------------------
    t_floor = 0
    for tid in ids:
        t_floor = max(t_floor, est[tid] + mindur[tid])
    for cid in cluster_ids:
        t_floor = max(t_floor, int(math.ceil(info.wash_est[cid] + info.min_wash[cid])))
    info.t_floor = min(t_floor, int(horizon))

    # -- 2. provable wash/task orders -------------------------------------
    for cluster in clusters:
        cid = cluster.id
        before_mask = 0
        for sid in cluster.source_tasks:
            if sid in pos:
                before_mask |= anc[sid] | (1 << pos[sid])
        after_mask = 0
        for bid in cluster.blocking_tasks:
            if bid in pos:
                after_mask |= desc[bid] | (1 << pos[bid])
        before: Set[str] = set()
        after: Set[str] = set()
        for tid in ids:
            bit = 1 << pos[tid]
            reach_before = bool(before_mask & bit) or (
                info.lend(tid) <= info.wash_est[cid]
            )
            reach_after = bool(after_mask & bit) or (
                est[tid] >= info.wash_lst[cid] + info.max_wash[cid]
            )
            if reach_before and reach_after:
                continue  # contradictory proof — leave the pair alone
            if reach_before:
                before.add(tid)
            elif reach_after:
                after.add(tid)
        info.before_wash[cid] = frozenset(before)
        info.after_wash[cid] = frozenset(after)

    # -- 2. provable wash/wash orders --------------------------------------
    def wash_provably_before(first, second) -> bool:
        # A blocker of `first` that precedes (or is) a source of `second`
        # chains tw(second) >= end(source) >= t(blocker) >= tw(first)+dur.
        for blk in first.blocking_tasks:
            if blk not in pos:
                continue
            blk_bit = 1 << pos[blk]
            for src in second.source_tasks:
                if blk == src or (src in anc and anc[src] & blk_bit):
                    return True
        # Numeric windows: first cannot end after second may start.
        return info.wash_lst[first.id] + info.max_wash[first.id] <= info.wash_est[second.id]

    for a_idx, a in enumerate(clusters):
        for b in clusters[a_idx + 1:]:
            ab = wash_provably_before(a, b)
            ba = wash_provably_before(b, a)
            if ab != ba:  # exactly one provable direction
                info.wash_order.add((a.id, b.id))

    info.presolve_time_s = time.perf_counter() - started
    return info


def publish(info: PresolveInfo) -> None:
    """Export the reduction counters to the metrics registry."""
    reg = obs_metrics.registry()
    if info.fixed_binaries:
        reg.counter("pdw_ilp_presolve_fixed_binaries_total").inc(info.fixed_binaries)
    if info.dropped_constraints:
        reg.counter("pdw_ilp_presolve_dropped_constraints_total").inc(
            info.dropped_constraints
        )
    if info.dropped_candidates:
        reg.counter("pdw_ilp_presolve_dropped_candidates_total").inc(
            info.dropped_candidates
        )
