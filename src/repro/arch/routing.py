"""Routing over a chip's flow network.

All flow paths — reagent transport, excess/waste removal, and the wash paths
of both PDW and the DAWO baseline — are computed here.  The router wraps
the CSR :class:`~repro.arch.pathkernel.PathKernel` (heapq Dijkstra + Yen's
k-paths + avoid-set-aware LRU cache) with chip-specific concerns: physical
edge lengths, node avoidance, multi-waypoint paths, and port selection.

Every kernel query returns ``(path, length_mm)`` — the kernel accumulates
the physical length while searching, so none of the methods here re-walk a
path through :meth:`Chip.path_length_mm` just to price it.  The ``*_mm``
method variants expose that pairing to callers (candidate generation and
cluster merging consume it); the plain variants keep the original
path-only signatures.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.arch.pathkernel import PathKernel, kernel_for
from repro.errors import RoutingError

#: A routed path together with its physical length in mm.
RoutedPath = Tuple[FlowPath, float]


def is_simple(path: Sequence[str]) -> bool:
    """Whether a flow path visits every node at most once."""
    return len(set(path)) == len(path)


class Router:
    """Shortest-path router over a :class:`~repro.arch.chip.Chip`.

    ``base_avoid`` bans a node set from *every* query this router issues
    (degraded-chip routing threads the dead-node set here).  Unlike the
    per-query ``avoid`` argument, the base set is folded into one shared
    frozenset up front, so the no-``avoid`` fast path below — and with it
    the kernel's LRU hit rate — survives arbitrarily large dead sets.
    """

    def __init__(self, chip: Chip, base_avoid: Optional[Iterable[str]] = None):
        self.chip = chip
        self.kernel: PathKernel = kernel_for(chip)
        #: Ports are never transited: fluid would leave the chip there.
        self._port_ban = frozenset(chip.flow_ports) | frozenset(chip.waste_ports)
        #: The every-query ban set: ports plus the router-level avoid set.
        self._base_ban = (
            self._port_ban | frozenset(base_avoid) if base_avoid else self._port_ban
        )

    # -- basic shortest paths ------------------------------------------------

    def _banned(self, avoid: Optional[Iterable[str]], keep: Sequence[str]):
        """Banned-node set for one routing query.

        Ports other than the endpoints are always banned: a flow cannot
        transit an inlet or outlet — fluid would leave the chip there.
        The no-``avoid`` case returns the shared base frozenset itself
        (no union, no copy): the kernel's LRU keys on this set, and an
        identity-stable frozenset hashes once ever, so repeated queries
        stay cache hits instead of rebuilding an equal-but-new set.
        """
        if not avoid:
            for endpoint in keep:
                if endpoint in self._base_ban:
                    return self._base_ban - frozenset(keep)
            return self._base_ban
        banned = self._base_ban | frozenset(avoid)
        if banned & frozenset(keep):
            banned = banned - frozenset(keep)
        return banned

    def shortest_path(
        self,
        src: str,
        dst: str,
        avoid: Optional[Iterable[str]] = None,
    ) -> FlowPath:
        """Shortest (physical length) path from ``src`` to ``dst``.

        ``avoid`` removes nodes from consideration (except the endpoints),
        modeling channels occupied by concurrent fluids.
        """
        return self.shortest_path_mm(src, dst, avoid)[0]

    def shortest_path_mm(
        self,
        src: str,
        dst: str,
        avoid: Optional[Iterable[str]] = None,
    ) -> RoutedPath:
        """Like :meth:`shortest_path` but paired with its length in mm."""
        return self.kernel.shortest(src, dst, self._banned(avoid, (src, dst)))

    def distance_mm(self, src: str, dst: str) -> float:
        """Shortest-path physical distance between two nodes."""
        return self.shortest_path_mm(src, dst)[1]

    def k_shortest_paths(self, src: str, dst: str, k: int = 3) -> List[FlowPath]:
        """Up to ``k`` loop-free paths in increasing length order."""
        banned = self._banned(None, (src, dst))
        return [path for path, _ in self.kernel.k_shortest(src, dst, k, banned)]

    # -- multi-waypoint paths ---------------------------------------------------

    def path_through(
        self,
        src: str,
        targets: Sequence[str],
        dst: str,
        avoid: Optional[Iterable[str]] = None,
    ) -> FlowPath:
        """A path from ``src`` to ``dst`` covering every node in ``targets``.

        Several target visit orders are tried with *strict* simplicity
        (no node revisited); the shortest simple result wins.  Only when no
        order yields a simple path does the router fall back to a walk that
        may revisit nodes.  Raises :class:`RoutingError` when some target
        is unreachable.
        """
        return self.path_through_mm(src, targets, dst, avoid)[0]

    def path_through_mm(
        self,
        src: str,
        targets: Sequence[str],
        dst: str,
        avoid: Optional[Iterable[str]] = None,
    ) -> RoutedPath:
        """Like :meth:`path_through` but paired with its length in mm."""
        remaining: Set[str] = set(targets)
        remaining.discard(src)
        remaining.discard(dst)
        base_avoid = set(avoid) if avoid else set()
        if not remaining:
            return self.shortest_path_mm(src, dst, avoid=base_avoid)

        best: Optional[RoutedPath] = None
        for order in self._visit_orders(src, sorted(remaining), base_avoid):
            for protect_future in (True, False):
                routed = self._build_simple(src, order, dst, base_avoid, protect_future)
                if routed is None:
                    continue
                if best is None or routed[1] < best[1]:
                    best = routed
        if best is not None:
            return best
        return self._build_relaxed(src, remaining, dst, base_avoid)

    def _chain_order(self, targets: List[str]) -> Optional[List[str]]:
        """Targets ordered along their induced path, if they form one.

        Contaminated spots usually lie along one flow path, so their
        induced subgraph is a simple chain — visiting them in chain order
        is the natural wash direction.
        """
        if len(targets) == 1:
            return list(targets)
        inside = set(targets)
        sub = {t: [n for n in self.chip.neighbors(t) if n in inside] for t in targets}
        if any(len(nbrs) > 2 for nbrs in sub.values()):
            return None
        if len(self.chip.components(targets)) != 1:
            return None
        endpoints = [n for n, nbrs in sub.items() if len(nbrs) <= 1]
        if len(endpoints) != 2:
            return None
        order: List[str] = [min(endpoints)]
        seen = {order[0]}
        while len(order) < len(targets):
            nxt = [n for n in sub[order[-1]] if n not in seen]
            if not nxt:
                return None
            order.append(nxt[0])
            seen.add(nxt[0])
        return order

    def _visit_orders(
        self, src: str, targets: List[str], base_avoid: Set[str]
    ) -> List[List[str]]:
        """Candidate target visit orders: distance sweeps + reversals."""
        def dist(a: str, b: str) -> float:
            try:
                return self.shortest_path_mm(a, b, avoid=base_avoid)[1]
            except RoutingError:
                return float("inf")

        ascending = sorted(targets, key=lambda t: (dist(src, t), t))
        greedy: List[str] = []
        pool = list(targets)
        current = src
        while pool:
            nxt = min(pool, key=lambda t: (dist(current, t), t))
            greedy.append(nxt)
            pool.remove(nxt)
            current = nxt
        orders = [greedy, ascending, list(reversed(ascending))]
        chain = self._chain_order(targets)
        if chain is not None:
            orders = [chain, list(reversed(chain))] + orders
        unique: List[List[str]] = []
        for order in orders:
            if order not in unique:
                unique.append(order)
        return unique

    def _build_simple(
        self,
        src: str,
        order: List[str],
        dst: str,
        base_avoid: Set[str],
        protect_future: bool = True,
    ) -> Optional[RoutedPath]:
        """Chain legs through ``order`` without revisiting any node.

        With ``protect_future`` each leg also detours around targets later
        in the order, so a leg never enters a constrained node (e.g. a
        two-ended device) from the side that strands the rest of the tour.
        """
        path: List[str] = [src]
        length = 0.0
        current = src
        covered = {src}
        for i, target in enumerate(order):
            if target in covered:
                continue
            avoid = base_avoid | (covered - {current})
            if protect_future:
                avoid |= {t for t in order[i + 1:] if t not in covered}
            try:
                leg, leg_mm = self.shortest_path_mm(current, target, avoid=avoid)
            except RoutingError:
                return None
            path.extend(leg[1:])
            length += leg_mm
            covered.update(leg)
            current = target
        try:
            leg, leg_mm = self.shortest_path_mm(
                current, dst, avoid=base_avoid | (covered - {current})
            )
        except RoutingError:
            return None
        path.extend(leg[1:])
        length += leg_mm
        return tuple(path), length

    def _build_relaxed(
        self, src: str, remaining: Set[str], dst: str, base_avoid: Set[str]
    ) -> RoutedPath:
        """Nearest-neighbor walk that may revisit nodes (last resort)."""
        remaining = set(remaining)
        path: List[str] = [src]
        length = 0.0
        current = src
        while remaining:
            current, (leg, leg_mm) = self._nearest_leg(
                current, remaining, base_avoid, path
            )
            path.extend(leg[1:])
            length += leg_mm
            remaining -= set(leg)
        last_leg, last_mm = self._leg(current, dst, base_avoid, path)
        path.extend(last_leg[1:])
        length += last_mm
        return tuple(path), length

    def _nearest_leg(
        self,
        current: str,
        remaining: Set[str],
        base_avoid: Set[str],
        visited: Sequence[str],
    ) -> Tuple[str, RoutedPath]:
        """Shortest leg from ``current`` to the closest remaining target."""
        best: Optional[Tuple[float, str, FlowPath]] = None
        for target in sorted(remaining):
            try:
                leg, leg_mm = self._leg(current, target, base_avoid, visited)
            except RoutingError:
                continue
            if best is None or leg_mm < best[0]:
                best = (leg_mm, target, leg)
        if best is None:
            raise RoutingError(
                f"cannot reach any of {sorted(remaining)} from {current!r}"
            )
        return best[1], (best[2], best[0])

    def _leg(
        self,
        src: str,
        dst: str,
        base_avoid: Set[str],
        visited: Sequence[str],
    ) -> RoutedPath:
        """One leg; try to stay simple first, then relax the visited set."""
        try:
            return self.shortest_path_mm(src, dst, avoid=base_avoid | set(visited))
        except RoutingError:
            return self.shortest_path_mm(src, dst, avoid=base_avoid)

    # -- port selection ----------------------------------------------------------

    def nearest_flow_port(self, node: str) -> str:
        """The flow port with the shortest route to ``node``."""
        return self._nearest_port(node, self.chip.flow_ports)

    def nearest_waste_port(self, node: str) -> str:
        """The waste port with the shortest route from ``node``."""
        return self._nearest_port(node, self.chip.waste_ports)

    def _nearest_port(self, node: str, ports: Sequence[str]) -> str:
        best_port, best_dist = None, float("inf")
        for port in ports:
            try:
                dist = self.distance_mm(node, port)
            except RoutingError:
                continue
            if dist < best_dist:
                best_port, best_dist = port, dist
        if best_port is None:
            raise RoutingError(f"no port reachable from {node!r}")
        return best_port

    def port_to_port_candidates(
        self,
        targets: Sequence[str],
        max_candidates: int = 8,
        avoid: Optional[Iterable[str]] = None,
    ) -> List[FlowPath]:
        """Candidate wash paths: every (flow port, waste port) pair routed
        through ``targets``, shortest first, truncated to ``max_candidates``.

        This is the candidate pool PDW's path-selection ILP chooses from.
        """
        return [
            path
            for path, _ in self.port_to_port_candidates_mm(
                targets, max_candidates, avoid
            )
        ]

    def port_to_port_candidates_mm(
        self,
        targets: Sequence[str],
        max_candidates: int = 8,
        avoid: Optional[Iterable[str]] = None,
    ) -> List[RoutedPath]:
        """Like :meth:`port_to_port_candidates`, each path with its length."""
        candidates: List[Tuple[float, FlowPath]] = []
        for fp in self.chip.flow_ports:
            for wp in self.chip.waste_ports:
                try:
                    path, length = self.path_through_mm(fp, targets, wp, avoid)
                except RoutingError:
                    continue
                candidates.append((length, path))
        candidates.sort(key=lambda item: (item[0], item[1]))
        unique: List[RoutedPath] = []
        seen: Set[FlowPath] = set()
        for length, path in candidates:
            if path not in seen:
                unique.append((path, length))
                seen.add(path)
            if len(unique) >= max_candidates:
                break
        if not unique:
            raise RoutingError(f"no port-to-port wash path covers {list(targets)}")
        return unique
