"""Configuration of the PDW optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.contam.necessity import NecessityPolicy
from repro.errors import WashError


@dataclass(frozen=True)
class PDWConfig:
    """Knobs of the PDW flow, defaulting to the paper's Section IV setup.

    Attributes
    ----------
    alpha, beta, gamma:
        Objective weights of Eq. (26) for the number of wash operations,
        total wash-path length (mm) and assay completion time (s).
    time_limit_s:
        Wall-clock budget for the scheduling ILP.  The paper allows
        15 minutes per benchmark; the default here is far smaller because
        the decomposed model solves quickly.
    mip_gap:
        Relative optimality gap accepted from the solver.
    max_candidates:
        Candidate wash paths generated per wash operation.
    merge_clusters:
        Whether to merge compatible wash clusters (fewer, longer washes)
        when the merge shortens the total path length.
    max_wash_path_mm:
        Physical cap on a single wash path.  A buffer flush is driven by
        one pressure source, which bounds the channel length it can flush
        reliably; merges that would exceed the cap are rejected.  The
        default matches the per-wash lengths of the paper's Table II
        results (~20-30 mm per wash operation).
    path_mode:
        ``"greedy"`` — candidate paths from the router (default);
        ``"exact"`` — solve the cell-based path ILP of Eqs. (12)-(15) per
        wash operation (slow; small chips only).
    necessity:
        Which wash-necessity analysis to apply.  The
        :attr:`~repro.contam.necessity.NecessityPolicy.REUSE_ONLY` setting
        disables the Type 2/3 exemptions (ablation of contribution 1).
    enable_integration:
        Whether excess removals may be folded into washes (ψ, Eq. 21;
        ablation of contribution 2).
    integration_window_s:
        Slack (seconds) around a wash cluster's baseline [release,
        deadline] window when collecting nearby excess removals as
        integration candidates: a removal overlapping the widened window
        may contribute its path to the cluster's candidate pool.  The ILP
        still enforces the exact ψ timing of Eq. (21); this knob only
        bounds which removals are *considered*, trading candidate-pool
        size against integration opportunities found.
    solver:
        Which rung of the solver degradation ladder to use.  ``"auto"``
        (default) walks the full ladder — HiGHS, a relaxed HiGHS retry,
        then branch-and-bound — stopping at the first usable incumbent;
        ``"highs"`` / ``"branch_bound"`` pin a backend; ``"greedy"`` skips
        the ILP entirely and assembles the plan with the sweep-line
        heuristic (``REPRO_FORCE_SOLVER`` overrides ``"auto"`` from the
        environment).
    presolve:
        Whether the solver-independent model-reduction layer runs before
        the scheduling ILP is built.  ``"on"`` (default) tightens
        variable bounds via longest-path propagation over the fixed
        baseline precedence DAG, fixes ordering binaries whose time
        windows provably cannot overlap, tightens every big-M
        coefficient per row and drops dominated wash-path candidates —
        the reduced model provably preserves the optimal objective and
        produces byte-identical canonical plans.  ``"off"`` emits the
        raw constraint system (see DESIGN.md §16).
    degrade:
        Chip-degradation scenario (DESIGN.md §14): a preset
        (``light`` / ``moderate`` / ``heavy``) or a
        ``channels=N:valves=N:devices=N:seed=N:dead=n1+n2`` spec.  Empty
        (default) means a pristine chip.  The spec's canonical token is
        folded into every downstream cache key (clusters, pathgen, ILP,
        warm-start structure digest), so degraded artifacts never collide
        with healthy ones.
    """

    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.4
    time_limit_s: float = 60.0
    mip_gap: float = 0.01
    max_candidates: int = 6
    merge_clusters: bool = True
    max_wash_path_mm: float = 33.0
    path_mode: str = "greedy"
    necessity: NecessityPolicy = NecessityPolicy.PDW
    enable_integration: bool = True
    integration_window_s: float = 10.0
    solver: str = "auto"
    presolve: str = "on"
    degrade: str = ""

    def __post_init__(self) -> None:
        # NaN compares false with everything, so it would slip past every
        # bound below (JSON submissions may carry NaN and Infinity).
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if math.isnan(value):
                raise WashError(f"{name} must be a number, got NaN")
            if math.isinf(value) and name != "time_limit_s":  # inf: no limit
                raise WashError(f"{name} must be finite, got {value}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise WashError("objective weights must be non-negative")
        if self.alpha + self.beta + self.gamma <= 0:
            raise WashError("at least one objective weight must be positive")
        if self.time_limit_s <= 0:
            raise WashError("time limit must be positive")
        if self.max_candidates < 1:
            raise WashError("need at least one candidate path per wash")
        if self.path_mode not in ("greedy", "exact"):
            raise WashError(f"unknown path mode {self.path_mode!r}")
        if self.mip_gap < 0:
            raise WashError("MIP gap must be non-negative")
        if self.max_wash_path_mm <= 0:
            raise WashError("maximum wash-path length must be positive")
        if self.integration_window_s < 0:
            raise WashError("integration window must be non-negative")
        if self.solver not in ("auto", "highs", "branch_bound", "greedy"):
            raise WashError(f"unknown solver {self.solver!r}")
        if self.presolve not in ("on", "off"):
            raise WashError(f"unknown presolve setting {self.presolve!r}")
        if self.degrade:
            # Normalize eagerly: the canonical token is what every cache
            # key sees, so equal scenarios written differently (preset vs
            # expanded, reordered fields) share artifacts.  Deferred
            # import: repro.degrade.model has no core dependencies, but
            # importing it at module level would still cycle through
            # repro.arch during interpreter start-up of some entrypoints.
            from repro.degrade.model import parse_spec

            object.__setattr__(self, "degrade", parse_spec(self.degrade).token())


#: The float fields, none of which may be NaN.
_FLOAT_FIELDS = tuple(f.name for f in fields(PDWConfig) if f.type == "float")

#: The exact parameterization used in the paper's experiments.
PAPER_CONFIG = PDWConfig(alpha=0.3, beta=0.3, gamma=0.4)
