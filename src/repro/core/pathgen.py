"""Candidate wash-path generation.

For each wash cluster, PDW considers every (flow port, waste port) pair and
routes a covering path through the cluster targets — like the paper's
example in Section II-C, where ``in4`` with the three candidate end points
``out1``/``out2``/``out4`` yields three alternative wash paths.  Paths
detour around devices that are not themselves wash targets (a buffer flow
through a loaded mixer would destroy its contents).

The scheduling ILP then selects one candidate per wash operation; with
``path_mode="exact"`` the cell-based ILP of Eqs. (12)-(15) refines the pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.arch.routing import RoutedPath, Router, is_simple
from repro.errors import RoutingError, WashError

def _bump(stats: Optional[Dict[str, int]], key: str) -> None:
    """Increment a routing-outcome counter when a stats dict is supplied."""
    if stats is not None:
        stats[key] = stats.get(key, 0) + 1


def candidate_paths(
    chip: Chip,
    targets: Sequence[str],
    max_candidates: int = 6,
    stats: Optional[Dict[str, int]] = None,
    avoid: Optional[Sequence[str]] = None,
) -> List[FlowPath]:
    """Candidate wash paths covering ``targets``, shortest first.

    Every returned path starts at a flow port and ends at a waste port
    (Eq. 12) and visits every target (Eq. 15).  Raises
    :class:`~repro.errors.WashError` when no port pair can reach the
    targets at all.  ``stats`` (when given) accumulates routing-outcome
    counters — ``avoid_relaxed`` (detour constraint dropped) and
    ``unroutable_pairs`` (port pair skipped entirely) — so silently
    discarded routes stay visible in the pipeline report.

    ``avoid`` is a *hard* ban (degraded-chip dead nodes): it is installed
    as the router's base avoid set, so unlike the foreign-device detour
    constraint it is never relaxed when routing gets tight.
    """
    if not targets:
        raise WashError("a wash path needs at least one target")
    router = Router(chip, base_avoid=avoid)
    foreign_devices: Set[str] = set(chip.devices) - set(targets)

    scored: List[Tuple[float, FlowPath]] = []
    for fp in chip.flow_ports:
        for wp in chip.waste_ports:
            routed = _route(router, fp, targets, wp, foreign_devices, stats)
            if routed is not None:
                path, length_mm = routed
                scored.append((length_mm, path))

    # Simple paths strictly first; walks that double back are last resorts.
    scored.sort(key=lambda item: (not is_simple(item[1]), item[0], item[1]))
    unique: List[FlowPath] = []
    seen: Set[FlowPath] = set()
    for _, path in scored:
        if path not in seen:
            unique.append(path)
            seen.add(path)
        if len(unique) >= max_candidates:
            break
    if unique and not is_simple(unique[0]):
        # keep only the shortest walk if nothing simple exists
        unique = unique[:1]
    elif unique:
        unique = [p for p in unique if is_simple(p)]
    if not unique:
        raise WashError(f"no port-to-port wash path covers {sorted(targets)}")
    return unique


def _route(
    router: Router,
    fp: str,
    targets: Sequence[str],
    wp: str,
    foreign_devices: Set[str],
    stats: Optional[Dict[str, int]] = None,
) -> RoutedPath | None:
    """One covering route (with its length) for a port pair, or ``None``.

    Routing failures are expected here (many port pairs simply cannot
    reach the targets) but they must not vanish silently: each dropped
    detour constraint and each unroutable pair is counted into ``stats``.
    The kernel already accumulated each path's physical length, so the
    caller never re-walks the path to price it.
    """
    try:
        return router.path_through_mm(fp, sorted(targets), wp, avoid=foreign_devices)
    except RoutingError:
        _bump(stats, "avoid_relaxed")
    try:
        return router.path_through_mm(fp, sorted(targets), wp)
    except RoutingError:
        _bump(stats, "unroutable_pairs")
        return None


def integration_candidates(
    chip: Chip,
    targets: Sequence[str],
    removal_paths: Sequence[FlowPath],
    max_extra: int = 3,
    stats: Optional[Dict[str, int]] = None,
    avoid: Optional[Sequence[str]] = None,
) -> List[FlowPath]:
    """Candidates that additionally cover an excess-removal path.

    Section II-B integrates washes with excess-fluid removals: a wash whose
    path covers a removal's nodes (and runs in its window) replaces it
    (ψ = 1, Eq. 21).  For each removal path, this routes a wash through
    ``targets`` *plus* the removal's interior nodes, using the removal's own
    port pair — giving the scheduling ILP candidates for which the
    containment test actually holds.
    """
    router = Router(chip, base_avoid=avoid)
    foreign_devices: Set[str] = set(chip.devices) - set(targets)
    dead = set(avoid or ())
    out: List[FlowPath] = []
    for rm_path in removal_paths:
        if dead & set(rm_path):
            # The removal itself crosses a dead node: it can no longer
            # run, so integrating a wash with it is meaningless.
            continue
        interior = [n for n in rm_path if not chip.is_port(n)]
        union = sorted(set(targets) | set(interior))
        routed = _route(router, rm_path[0], union, rm_path[-1], foreign_devices, stats)
        if routed is not None:
            cand = routed[0]
            if set(rm_path) <= set(cand) and is_simple(cand):
                out.append(cand)
        if len(out) >= max_extra:
            break
    return out
