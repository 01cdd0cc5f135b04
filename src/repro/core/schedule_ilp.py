"""The PDW scheduling ILP — Eqs. (1)-(26) over re-timed task variables.

Decision variables
------------------
* one integer start per baseline task (operations keep their durations,
  Eq. 1; precedences follow Eqs. 2, 4, 5),
* one integer start per wash operation plus one binary per candidate wash
  path (the selected candidate determines the wash duration via Eq. 17 and
  its contribution to :math:`L_{wash}`, Eq. 25),
* ordering binaries for wash/task and wash/wash node conflicts
  (Eqs. 19, 20),
* integration binaries :math:`\\psi` folding an excess-removal task into a
  wash whose path covers it (Eqs. 7, 21).

Relative order among *baseline* tasks that share chip nodes is kept as in
the baseline schedule (the paper's monolithic model also re-orders them;
fixing the order is the decomposition that keeps the model tractable — see
DESIGN.md).  Everything may shift in time, so wash windows (Eq. 16) are
enforced against task variables and the model is always feasible: a tight
window simply delays the blocking task.

Model reduction (PR 10)
-----------------------
Before assembly, :mod:`repro.ilp.presolve` propagates start-time windows
over the fixed precedence/order DAG and proves which ordering binaries,
big-M rows and candidate paths are dead; the builder consults that
:class:`~repro.ilp.presolve.PresolveInfo` row by row and skips what was
proven (DESIGN.md §16 argues each rule preserves the optimal plans).
``PDWConfig.presolve = "off"`` (``--presolve off``) disables the
reduction and emits the unreduced constraint system.  The
objective tie-breaks apply in both modes (start-time drift, candidate
pool index, absorption preference), so at *proven optimality* alternate
optima collapse to one canonical plan and presolved and raw solves agree
byte-for-byte under ``canonical_plan_json`` (CI's ``presolve-identity``
job checks the full matrix at ``mip_gap=1e-9``).  At a loose MIP gap the
two formulations may legally stop at different within-tolerance
incumbents, so byte identity is only guaranteed where optimality is
proven.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.core.config import PDWConfig
from repro.core.targets import WashCluster
from repro.errors import InfeasibleError, SolverError, UnboundedError, WashError
from repro.ilp import (
    LinExpr,
    Model,
    RungAttempt,
    Solution,
    SolverPortfolio,
    SolveStatus,
    Variable,
)
from repro.ilp import presolve as ilp_presolve
from repro.ilp.presolve import PresolveInfo, baseline_order_pairs, precedence_pairs
from repro.obs.trace import span
from repro.schedule.schedule import Schedule
from repro.schedule.tasks import ScheduledTask, TaskKind


@dataclass
class IlpWashOutcome:
    """Raw solver outcome, consumed by the PDW orchestrator."""

    status: SolveStatus
    objective: float
    solve_time_s: float
    starts: Dict[str, int]
    wash_starts: Dict[str, int]
    wash_paths: Dict[str, FlowPath]
    wash_durations: Dict[str, int]
    absorbed: Dict[str, str] = field(default_factory=dict)  # removal id -> cluster id
    model_stats: str = ""
    mip_gap: Optional[float] = None
    n_variables: int = 0
    n_binaries: int = 0
    n_constraints: int = 0
    rung: str = "highs"
    attempts: Tuple[RungAttempt, ...] = ()
    build_time_s: float = 0.0
    #: Whether a cached incumbent primed the solve (incremental re-solve).
    warm_started: bool = False
    #: Model-reduction accounting (all zero with ``presolve = "off"``).
    presolve_time_s: float = 0.0
    presolve_fixed_binaries: int = 0
    presolve_dropped_constraints: int = 0
    presolve_dropped_candidates: int = 0


class WashScheduleIlp:
    """Builds and solves the PDW scheduling model."""

    def __init__(
        self,
        chip: Chip,
        baseline: Schedule,
        clusters: Sequence[WashCluster],
        candidates: Dict[str, List[FlowPath]],
        config: Optional[PDWConfig] = None,
    ):
        self.chip = chip
        self.baseline = baseline
        self.clusters = list(clusters)
        self.candidates = candidates
        self.config = config if config is not None else PDWConfig()
        for cluster in self.clusters:
            if not candidates.get(cluster.id):
                raise WashError(f"cluster {cluster.id!r} has no candidate paths")

        self.tasks: List[ScheduledTask] = self.baseline.tasks()
        self.horizon = self._horizon()
        self.model = Model("pdw-schedule", big_m=float(self.horizon))
        self._t: Dict[str, Variable] = {}
        self._wash_t: Dict[str, Variable] = {}
        self._x: Dict[Tuple[str, int], Variable] = {}
        self._psi: Dict[Tuple[str, str], Variable] = {}
        self._psi_sum: Dict[str, LinExpr] = {}
        #: Per-cluster wash-duration rows ``[(x_i, wash_time_i), ...]`` —
        #: the coefficient form of :meth:`_wash_duration`, reused by every
        #: batch constraint that mentions the selected wash duration.
        self._wash_dur_terms: Dict[str, List[Tuple[Variable, float]]] = {}
        #: Surviving candidate indices per cluster (original positions in
        #: the candidate pool; all of them with presolve off).
        self._survivors: Dict[str, List[int]] = {}
        self.build_time_s: float = 0.0
        self.presolve_enabled = getattr(self.config, "presolve", "on") == "on"
        self.presolve_info: Optional[PresolveInfo] = None
        self.presolve_time_s: float = 0.0
        #: Solution of the most recent :meth:`solve`, kept so callers can
        #: bank it as a warm-start incumbent for structural twins.
        self.last_solution: Optional[Solution] = None

    # -- model assembly ---------------------------------------------------------

    def _horizon(self) -> int:
        wash_worst = sum(
            max(self.chip.wash_time_s(p) for p in self.candidates[c.id])
            for c in self.clusters
        )
        return self.baseline.makespan + wash_worst + 10

    def _duration_expr(self, task: ScheduledTask) -> LinExpr:
        """Effective duration: removals shrink to zero when absorbed (Eq. 7)."""
        base = LinExpr({}, float(task.duration))
        psi = self._psi_sum.get(task.id)
        if psi is not None:
            return base - task.duration * psi
        return base

    def _end_expr(self, task: ScheduledTask) -> LinExpr:
        """Reference form of ``end(task)``; the hot loops use the batch
        coefficient rows of :meth:`_add_ge_end`, which mirror it exactly."""
        return LinExpr.from_any(self._t[task.id]) + self._duration_expr(task)

    def _add_ge_end(
        self,
        var: Variable,
        task: ScheduledTask,
        name: str,
        extra: Sequence[Tuple[Variable, float]] = (),
        rhs_shift: float = 0.0,
    ) -> None:
        """Batch row for ``var >= end(task) [+ extra terms + rhs_shift]``.

        With ``end(task) = t + d - d*sum(psi)`` (Eq. 7 absorption) the row
        is ``var - t + d*sum(psi) + extra >= d + rhs_shift`` — identical to
        what ``var >= self._end_expr(task) - ...`` builds through operators,
        minus the intermediate LinExpr allocations.
        """
        d = float(task.duration)
        coeffs: List[Tuple[Variable, float]] = [(var, 1.0), (self._t[task.id], -1.0)]
        psi = self._psi_sum.get(task.id)
        if psi is not None:
            coeffs.extend((p, d * c) for p, c in psi.terms.items())
        coeffs.extend(extra)
        self.model.add_linear_constraint(coeffs, ">=", d + rhs_shift, name)

    def build(self) -> None:
        """Assemble all variables and constraints.

        With :attr:`presolve_info` set, every loop below consults it:
        tightened variable bounds, skipped dead rows/binaries, per-row
        big-M values and the surviving candidate subset.  With it ``None``
        the original formulation is emitted untouched.
        """
        m = self.model
        info = self.presolve_info
        for task in self.tasks:
            # Washes may only delay the assay, never re-pack it tighter
            # than the baseline, so each task keeps its baseline start as
            # a lower bound (this also guarantees T_delay >= 0).
            lb, ub = task.start, self.horizon
            if info is not None:
                lb = max(lb, info.est[task.id])
                ub = info.lst[task.id]
            self._t[task.id] = m.add_integer_var(f"t[{task.id}]", lb, ub)
        for cluster in self.clusters:
            lb, ub = 0, self.horizon
            if info is not None:
                lb, ub = info.wash_est[cluster.id], info.wash_lst[cluster.id]
            self._wash_t[cluster.id] = m.add_integer_var(f"tw[{cluster.id}]", lb, ub)
            cands = self.candidates[cluster.id]
            survivors = (
                info.survivors[cluster.id] if info is not None else list(range(len(cands)))
            )
            self._survivors[cluster.id] = survivors
            xs = [m.add_binary_var(f"x[{cluster.id},{i}]") for i in survivors]
            for i, x in zip(survivors, xs):
                self._x[(cluster.id, i)] = x
            self._wash_dur_terms[cluster.id] = [
                (x, float(self.chip.wash_time_s(cands[i]))) for i, x in zip(survivors, xs)
            ]
            m.add_linear_constraint([(x, 1.0) for x in xs], "==", 1.0, f"one_path[{cluster.id}]")

        self._add_integration_vars()
        self._add_order_rows()
        self._add_wash_windows()
        self._add_wash_conflicts()
        self._add_integration_constraints()
        self._add_objective()

    # -- ψ integration (Eqs. 7, 21) ------------------------------------------------

    def _add_integration_vars(self) -> None:
        if not self.config.enable_integration:
            return
        m = self.model
        removals = [t for t in self.tasks if t.kind is TaskKind.REMOVAL]
        for rm in removals:
            rm_nodes = set(rm.path or ())
            terms: List[Variable] = []
            for cluster in self.clusters:
                covering = [
                    i
                    for i in self._survivors[cluster.id]
                    if rm_nodes <= set(self.candidates[cluster.id][i])
                ]
                if not covering:
                    continue
                psi = m.add_binary_var(f"psi[{rm.id},{cluster.id}]")
                self._psi[(rm.id, cluster.id)] = psi
                m.add_linear_constraint(
                    [(psi, 1.0)] + [(self._x[(cluster.id, i)], -1.0) for i in covering],
                    "<=",
                    0.0,
                    f"psi_cover[{rm.id},{cluster.id}]",
                )
                terms.append(psi)
            if terms:
                m.add_linear_constraint(
                    [(p, 1.0) for p in terms], "<=", 1.0, f"psi_once[{rm.id}]"
                )
                self._psi_sum[rm.id] = LinExpr.sum(terms)

    # -- precedences + fixed baseline order (Eqs. 2, 3, 4, 5, 8) -----------------------

    def _emit_order_pairs(
        self,
        pairs: Iterator[Tuple[ScheduledTask, ScheduledTask, str]],
        emitted: set,
    ) -> None:
        """Emit ``t[b] >= end(a)`` rows, consulting presolve when enabled.

        Under presolve, duplicated pairs, transitively entailed pairs and
        pairs already forced by the propagated windows are dropped.
        """
        info = self.presolve_info
        if info is None:
            for a, b, name in pairs:
                self._add_ge_end(self._t[b.id], a, name)
            return
        for a, b, name in pairs:
            key = (a.id, b.id)
            if (
                key in emitted
                or key in info.redundant_pairs
                # The windows alone force b after a's latest possible end.
                or info.est[b.id] >= info.lend(a.id)
            ):
                info.dropped_constraints += 1
                continue
            emitted.add(key)
            self._add_ge_end(self._t[b.id], a, name)

    def _add_order_rows(self) -> None:
        """Emit the precedence and baseline-order rows.

        The pairs come from :func:`~repro.ilp.presolve.precedence_pairs` /
        :func:`~repro.ilp.presolve.baseline_order_pairs` — the same
        generators presolve builds its DAG from, so the analysis and the
        emitted model can never drift apart.
        """
        emitted: set = set()
        self._emit_order_pairs(precedence_pairs(self.tasks), emitted)
        self._add_baseline_order(emitted)

    def _add_baseline_order(self, emitted: set) -> None:
        """Fixed relative order of node-sharing baseline tasks (Eqs. 3, 8).

        Overridden by the free-ordering relaxation
        (:class:`~repro.core.monolithic.MonolithicWashIlp`).
        """
        self._emit_order_pairs(baseline_order_pairs(self.tasks), emitted)

    # -- wash windows (Eq. 16) -----------------------------------------------------------

    def _wash_duration(self, cluster: WashCluster) -> LinExpr:
        return LinExpr.sum(
            wt * LinExpr.from_any(x) for x, wt in self._wash_dur_terms[cluster.id]
        )

    def _wash_length(self, cluster: WashCluster) -> LinExpr:
        cands = self.candidates[cluster.id]
        return LinExpr.sum(
            self.chip.path_length_mm(cands[i]) * LinExpr.from_any(self._x[(cluster.id, i)])
            for i in self._survivors[cluster.id]
        )

    def _add_wash_windows(self) -> None:
        m = self.model
        info = self.presolve_info
        for cluster in self.clusters:
            cid = cluster.id
            tw = self._wash_t[cid]
            neg_dur = [(x, -wt) for x, wt in self._wash_dur_terms[cid]]
            for source_id in sorted(cluster.source_tasks):
                if info is not None and info.wash_est[cid] >= info.lend(source_id):
                    info.dropped_constraints += 1
                    continue
                source = self.baseline.get(source_id)
                self._add_ge_end(tw, source, f"wash_after[{cid},{source_id}]")
            for blocker_id in sorted(cluster.blocking_tasks):
                if (
                    info is not None
                    and info.est[blocker_id] >= info.wash_lst[cid] + info.max_wash[cid]
                ):
                    info.dropped_constraints += 1
                    continue
                m.add_linear_constraint(
                    [(self._t[blocker_id], 1.0), (tw, -1.0)] + neg_dur,
                    ">=",
                    0.0,
                    f"wash_before[{cid},{blocker_id}]",
                )

    # -- wash resource conflicts (Eqs. 19, 20) ----------------------------------------------

    def _add_wash_conflicts(self) -> None:
        m = self.model
        big = float(self.horizon)
        info = self.presolve_info
        task_nodes = [(task, set(task.occupied_nodes)) for task in self.tasks]
        for cluster in self.clusters:
            cid = cluster.id
            tw = self._wash_t[cid]
            neg_dur = [(x, -wt) for x, wt in self._wash_dur_terms[cid]]
            exempt = cluster.source_tasks | cluster.blocking_tasks
            before = info.before_wash.get(cid, frozenset()) if info is not None else frozenset()
            after = info.after_wash.get(cid, frozenset()) if info is not None else frozenset()
            mu_of: Dict[str, Variable] = {}
            fixed_tasks: set = set()
            cands = self.candidates[cid]
            for i in self._survivors[cid]:
                cand = cands[i]
                cand_nodes = set(cand)
                x = self._x[(cid, i)]
                wt_i = float(self.chip.wash_time_s(cand))
                for task, nodes in task_nodes:
                    if task.id in exempt:
                        continue
                    if not (cand_nodes & nodes):
                        continue
                    if task.id in before or task.id in after:
                        # The relative order is provable: both big-M rows
                        # (and this task's mu binary) are dead weight.
                        fixed_tasks.add(task.id)
                        info.dropped_constraints += 2
                        continue
                    if info is not None:
                        m_after = info.m_wash_after_task(cid, task.id)
                        m_before = info.m_task_after_wash(cid, task.id)
                        drop_before = info.est[task.id] >= info.wash_lst[cid] + wt_i
                    else:
                        m_after = m_before = big
                        drop_before = False
                    mu = mu_of.get(task.id)
                    if mu is None:
                        mu = m.add_binary_var(f"mu[{cid},{task.id}]")
                        mu_of[task.id] = mu
                    psi = self._psi.get((task.id, cid))
                    tp = self._t[task.id]
                    # μ = 1: wash after the task; μ = 0: task after the wash.
                    # w_after: tw >= tp + dur(task) - M(1-μ) - M(1-x) - Mψ
                    # as a batch row (Eq. 7 absorption folded into +dψ terms).
                    d = float(task.duration)
                    after_row: List[Tuple[Variable, float]] = [
                        (tw, 1.0), (tp, -1.0), (mu, -m_after), (x, -m_after)
                    ]
                    psum = self._psi_sum.get(task.id)
                    if psum is not None:
                        after_row.extend((p, d * c) for p, c in psum.terms.items())
                    if psi is not None:
                        after_row.append((psi, m_after))
                    m.add_linear_constraint(
                        after_row, ">=", d - 2.0 * m_after,
                        f"w_after[{cid},{i},{task.id}]",
                    )
                    if drop_before:
                        # With x_i selected the windows already force the
                        # task after the wash; the row binds nothing.
                        info.dropped_constraints += 1
                        continue
                    # w_before: tp >= tw + dur(wash) - Mμ - M(1-x) - Mψ
                    before_row: List[Tuple[Variable, float]] = [
                        (tp, 1.0), (tw, -1.0), (mu, m_before), (x, -m_before)
                    ]
                    before_row.extend(neg_dur)
                    if psi is not None:
                        before_row.append((psi, m_before))
                    m.add_linear_constraint(
                        before_row, ">=", -m_before,
                        f"w_before[{cid},{i},{task.id}]",
                    )
            if info is not None:
                info.fixed_binaries += len(fixed_tasks)

        # wash-wash conflicts (Eq. 20)
        cand_sets = {
            c.id: [(i, set(self.candidates[c.id][i])) for i in self._survivors[c.id]]
            for c in self.clusters
        }
        wash_times = {
            c.id: {i: float(self.chip.wash_time_s(self.candidates[c.id][i]))
                   for i in self._survivors[c.id]}
            for c in self.clusters
        }
        for a_idx, a in enumerate(self.clusters):
            neg_dur_a = [(x, -wt) for x, wt in self._wash_dur_terms[a.id]]
            ta = self._wash_t[a.id]
            for b in self.clusters[a_idx + 1:]:
                neg_dur_b = [(x, -wt) for x, wt in self._wash_dur_terms[b.id]]
                tb = self._wash_t[b.id]
                pair_fixed = info is not None and (a.id, b.id) in info.wash_order
                eta: Optional[Variable] = None
                conflicted = False
                for i, nodes_a in cand_sets[a.id]:
                    for j, nodes_b in cand_sets[b.id]:
                        if not (nodes_a & nodes_b):
                            continue
                        conflicted = True
                        if pair_fixed:
                            info.dropped_constraints += 2
                            continue
                        if info is not None:
                            # ww_a enforces a-after-b, ww_b the reverse.
                            drop_a = (
                                info.wash_est[a.id]
                                >= info.wash_lst[b.id] + wash_times[b.id][j]
                            )
                            drop_b = (
                                info.wash_est[b.id]
                                >= info.wash_lst[a.id] + wash_times[a.id][i]
                            )
                            m_a = info.m_wash_after_wash(b.id, a.id)
                            m_b = info.m_wash_after_wash(a.id, b.id)
                        else:
                            drop_a = drop_b = False
                            m_a = m_b = big
                        if drop_a and drop_b:
                            info.dropped_constraints += 2
                            continue
                        if eta is None:
                            eta = m.add_binary_var(f"eta[{a.id},{b.id}]")
                        xa = self._x[(a.id, i)]
                        xb = self._x[(b.id, j)]
                        # η = 1: wash a after wash b, else b after a; both
                        # rows relax by M(2 - x_a - x_b) unless selected.
                        if drop_a:
                            info.dropped_constraints += 1
                        else:
                            m.add_linear_constraint(
                                [(ta, 1.0), (tb, -1.0), (eta, -m_a), (xa, -m_a), (xb, -m_a)]
                                + neg_dur_b,
                                ">=",
                                -3.0 * m_a,
                                f"ww_a[{a.id},{b.id},{i},{j}]",
                            )
                        if drop_b:
                            info.dropped_constraints += 1
                        else:
                            m.add_linear_constraint(
                                [(tb, 1.0), (ta, -1.0), (eta, m_b), (xa, -m_b), (xb, -m_b)]
                                + neg_dur_a,
                                ">=",
                                -2.0 * m_b,
                                f"ww_b[{a.id},{b.id},{i},{j}]",
                            )
                if conflicted and eta is None and info is not None:
                    info.fixed_binaries += 1

    # -- ψ timing constraints (Eq. 21) ---------------------------------------------------

    def _add_integration_constraints(self) -> None:
        m = self.model
        big = float(self.horizon)
        info = self.presolve_info
        by_edge: Dict[Tuple[str, str], Dict[TaskKind, ScheduledTask]] = {}
        for task in self.tasks:
            if task.edge is not None:
                by_edge.setdefault(task.edge, {})[task.kind] = task
        op_task: Dict[str, ScheduledTask] = {
            t.op_id: t for t in self.tasks if t.kind is TaskKind.OPERATION
        }
        for (rm_id, cluster_id), psi in self._psi.items():
            rm = self.baseline.get(rm_id)
            tw = self._wash_t[cluster_id]
            neg_dur = [(x, -wt) for x, wt in self._wash_dur_terms[cluster_id]]
            group = by_edge.get(rm.edge or ("", ""), {})
            transport = group.get(TaskKind.TRANSPORT)
            consumer = op_task.get(rm.edge[1]) if rm.edge else None
            if transport is None or consumer is None:
                # Cannot prove the wash covers the removal's timing role.
                m.add_linear_constraint(
                    [(psi, 1.0)], "<=", 0.0, f"psi_off[{rm_id},{cluster_id}]"
                )
                continue
            # The wash plays the removal's role: start after the transport
            # that cached the excess fluid (slack M(1-ψ) when not absorbed)...
            if info is not None and info.wash_est[cluster_id] >= info.lend(transport.id):
                info.dropped_constraints += 1
            else:
                m_after = (
                    info.m_wash_after_task(cluster_id, transport.id)
                    if info is not None
                    else big
                )
                self._add_ge_end(
                    tw,
                    transport,
                    f"psi_after[{rm_id},{cluster_id}]",
                    extra=[(psi, -m_after)],
                    rhs_shift=-m_after,
                )
            # ... and finish before the consuming operation starts.
            if (
                info is not None
                and info.est[consumer.id]
                >= info.wash_lst[cluster_id] + info.max_wash[cluster_id]
            ):
                info.dropped_constraints += 1
                continue
            m_before = (
                info.m_task_after_wash(cluster_id, consumer.id) if info is not None else big
            )
            m.add_linear_constraint(
                [(self._t[consumer.id], 1.0), (tw, -1.0), (psi, -m_before)] + neg_dur,
                ">=",
                -m_before,
                f"psi_before[{rm_id},{cluster_id}]",
            )

    # -- objective (Eq. 26) ------------------------------------------------------------------

    def _add_objective(self) -> None:
        m = self.model
        info = self.presolve_info
        t_floor = info.t_floor if info is not None else 0
        t_assay = m.add_integer_var("T_assay", t_floor, self.horizon)
        for task in self.tasks:
            if info is not None and t_floor >= info.lend(task.id):
                info.dropped_constraints += 1
                continue
            self._add_ge_end(t_assay, task, f"T_ge[{task.id}]")
        for cluster in self.clusters:
            cid = cluster.id
            if (
                info is not None
                and t_floor >= info.wash_lst[cid] + info.max_wash[cid]
            ):
                info.dropped_constraints += 1
                continue
            m.add_linear_constraint(
                [(t_assay, 1.0), (self._wash_t[cid], -1.0)]
                + [(x, -wt) for x, wt in self._wash_dur_terms[cid]],
                ">=",
                0.0,
                f"T_ge_wash[{cid}]",
            )
        cfg = self.config
        length_total = LinExpr.sum(self._wash_length(c) for c in self.clusters)
        objective = (
            cfg.alpha * len(self.clusters)
            + cfg.beta * length_total
            + cfg.gamma * LinExpr.from_any(t_assay)
        )
        # Tiny pressure so tasks (and washes) do not float needlessly late;
        # washes are included so alternate-optimal wash placements collapse
        # to one canonical plan regardless of how the model was reduced.
        # The coefficient must exceed the solver's absolute-gap tolerance
        # (HiGHS: 1e-6) or a one-second tie stays unresolved and reduced/raw
        # models may report different alternate optima.
        drift = LinExpr.sum(LinExpr.from_any(v) for v in self._t.values())
        drift = drift + LinExpr.sum(LinExpr.from_any(v) for v in self._wash_t.values())
        # Same-cost candidate paths (symmetric routes) are tie-broken toward
        # the lowest pool index; survivors keep original indices, so the
        # preference is identical with and without presolve.
        pick = LinExpr.sum(
            float(i) * LinExpr.from_any(x) for (_, i), x in self._x.items()
        )
        # A free absorption (psi flips nothing else in the objective) is
        # taken, so integration ties resolve the same way in both modes.
        absorb = LinExpr.sum(LinExpr.from_any(p) for p in self._psi.values())
        m.set_objective(objective + 1e-5 * drift + 1e-5 * pick - 1e-5 * absorb)

    # -- solving / extraction -------------------------------------------------------------------

    def ensure_built(self) -> None:
        """Run presolve (when enabled) and assemble the model exactly once."""
        if self.model.variables:
            return
        if self.presolve_enabled and self.presolve_info is None:
            started = time.perf_counter()
            with span("ilp.presolve", model=self.model.name):
                self.presolve_info = ilp_presolve.analyze(
                    self.chip,
                    self.tasks,
                    self.clusters,
                    self.candidates,
                    self.config,
                    self.horizon,
                )
            self.presolve_time_s = time.perf_counter() - started
        started = time.perf_counter()
        with span("ilp.build", model=self.model.name):
            self.build()
        self.build_time_s = time.perf_counter() - started
        if self.presolve_info is not None:
            ilp_presolve.publish(self.presolve_info)

    def solve(self, portfolio: Optional[SolverPortfolio] = None) -> IlpWashOutcome:
        """Build (if needed), solve via the degradation ladder, and extract.

        A proven-infeasible/unbounded model raises a clean
        :class:`InfeasibleError` / :class:`UnboundedError`;
        :class:`~repro.errors.LadderExhausted` (every backend rung failed)
        propagates so the ILP stage can fall back to greedy assembly.
        """
        self.ensure_built()
        pf = portfolio if portfolio is not None else SolverPortfolio.from_config(self.config)
        result = pf.solve(self.model)
        solution = result.solution
        self.last_solution = solution if solution.status.has_solution else None
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"PDW scheduling ILP is infeasible ({self.model.stats()})"
            )
        if solution.status is SolveStatus.UNBOUNDED:
            raise UnboundedError("PDW scheduling ILP is unbounded")
        if not solution.status.has_solution:  # pragma: no cover - ladder guarantees
            raise SolverError(f"PDW scheduling ILP failed: {solution.status.value}")

        starts = {task.id: solution.rounded(self._t[task.id]) for task in self.tasks}
        wash_starts, wash_paths, wash_durs = {}, {}, {}
        for cluster in self.clusters:
            wash_starts[cluster.id] = solution.rounded(self._wash_t[cluster.id])
            for i in self._survivors[cluster.id]:
                if solution.rounded(self._x[(cluster.id, i)]) == 1:
                    cand = self.candidates[cluster.id][i]
                    wash_paths[cluster.id] = cand
                    wash_durs[cluster.id] = self.chip.wash_time_s(cand)
                    break
        absorbed = {
            rm_id: cluster_id
            for (rm_id, cluster_id), psi in self._psi.items()
            if solution.rounded(psi) == 1
        }
        pinfo = self.presolve_info
        return IlpWashOutcome(
            status=solution.status,
            objective=float(solution.objective or 0.0),
            solve_time_s=solution.solve_time_s,
            starts=starts,
            wash_starts=wash_starts,
            wash_paths=wash_paths,
            wash_durations=wash_durs,
            absorbed=absorbed,
            model_stats=self.model.stats(),
            mip_gap=solution.mip_gap,
            n_variables=len(self.model.variables),
            n_binaries=self.model.num_binaries,
            n_constraints=self.model.num_rows,
            rung=result.rung,
            attempts=result.attempts,
            build_time_s=self.build_time_s,
            warm_started=pf.incumbent is not None,
            presolve_time_s=self.presolve_time_s,
            presolve_fixed_binaries=pinfo.fixed_binaries if pinfo else 0,
            presolve_dropped_constraints=pinfo.dropped_constraints if pinfo else 0,
            presolve_dropped_candidates=pinfo.dropped_candidates if pinfo else 0,
        )
