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

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.arch.pathkernel import PathKernel, kernel_for
from repro.errors import RoutingError

#: A routed path together with its physical length in mm.
RoutedPath = Tuple[FlowPath, float]

_INF = float("inf")


def is_simple(path: Sequence[str]) -> bool:
    """Whether a flow path visits every node at most once."""
    return len(set(path)) == len(path)


class Router:
    """Shortest-path router over a :class:`~repro.arch.chip.Chip`.

    ``base_avoid`` bans a node set from *every* query this router issues
    (degraded-chip routing threads the dead-node set here).  Like every
    ban set in the router it is a kernel ban mask (an ``int`` over node
    indices, see :mod:`repro.arch.pathkernel`), folded once up front with
    the ports; each query ORs its own bans onto it.
    """

    def __init__(self, chip: Chip, base_avoid: Optional[Iterable[str]] = None):
        self.chip = chip
        self.kernel: PathKernel = kernel_for(chip)
        mask = self.kernel.mask
        #: The every-query ban mask: the ports, which are never transited
        #: (fluid would leave the chip there), plus ``base_avoid``.
        self._base_ban = (
            mask(chip.flow_ports) | mask(chip.waste_ports) | mask(base_avoid or ())
        )
        #: ``_visit_orders`` answers by ``(src, targets, banned)``.
        self._orders: Dict[Tuple[str, Tuple[str, ...], int], List[List[str]]] = {}

    # -- basic shortest paths ------------------------------------------------

    def _banned(self, avoid: Optional[Iterable[str]]) -> int:
        """Ban mask for one routing query.

        Ports are always banned: a flow cannot transit an inlet or outlet —
        fluid would leave the chip there.  The kernel never bans a query's
        own endpoints, so the mask needs no per-endpoint copy.  Names in
        ``avoid`` that are not chip nodes have no bit, so such a query
        shares its cache entries with the same query without them.
        """
        return self._base_ban | self.kernel.mask(avoid or ())

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
        return self.kernel.shortest(src, dst, self._banned(avoid))

    def distance_mm(self, src: str, dst: str) -> float:
        """Shortest-path physical distance between two nodes."""
        return self.shortest_path_mm(src, dst)[1]

    def k_shortest_paths(self, src: str, dst: str, k: int = 3) -> List[FlowPath]:
        """Up to ``k`` loop-free paths in increasing length order."""
        return [
            path for path, _ in self.kernel.k_shortest(src, dst, k, self._base_ban)
        ]

    def _distances(
        self, src: str, targets: Sequence[str], banned: int
    ) -> Dict[str, float]:
        """Shortest distance from ``src`` to each target (``inf`` if none).

        One kernel distance row answers every target where the chip's
        segment sums are exact; elsewhere each target costs a leg query,
        so the numbers always equal the legs the router would route.
        """
        kernel = self.kernel
        if kernel.exact_sums:
            row = kernel.distances_from(src, banned)
            index = kernel.index
            return {t: row[index[t]] if t in index else _INF for t in targets}
        out: Dict[str, float] = {}
        for t in targets:
            try:
                out[t] = kernel.shortest(src, t, banned)[1]
            except RoutingError:
                out[t] = _INF
        return out

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
        remaining = sorted(set(targets) - {src, dst})
        if not remaining:
            return self.shortest_path_mm(src, dst, avoid)
        banned = self._banned(avoid)
        best: Optional[RoutedPath] = None
        for order in self._visit_orders(src, remaining, banned):
            for protect_future in (True, False):
                routed = self._build_simple(src, order, dst, banned, protect_future)
                if routed is None:
                    continue
                if best is None or routed[1] < best[1]:
                    best = routed
        if best is not None:
            return best
        return self._build_relaxed(src, remaining, dst, banned)

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
        self, src: str, targets: List[str], banned: int
    ) -> List[List[str]]:
        """Candidate target visit orders: distance sweeps + reversals.

        The orders do not depend on the destination, so a sweep over
        every waste port asks the same question once per waste port: the
        answers are memoised for the router's lifetime (callers must not
        mutate them).
        """
        key = (src, tuple(targets), banned)
        orders = self._orders.get(key)
        if orders is None:
            orders = self._orders[key] = self._compute_visit_orders(
                src, targets, banned
            )
        return orders

    def _compute_visit_orders(
        self, src: str, targets: List[str], banned: int
    ) -> List[List[str]]:
        near = self._distances(src, targets, banned)
        ascending = sorted(targets, key=lambda t: (near[t], t))
        greedy: List[str] = []
        pool = list(targets)
        dist = near
        while pool:
            nxt = min(pool, key=lambda t: (dist[t], t))
            greedy.append(nxt)
            pool.remove(nxt)
            if pool:
                dist = self._distances(nxt, pool, banned)
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
        banned: int,
        protect_future: bool = True,
    ) -> Optional[RoutedPath]:
        """Chain legs through ``order`` without revisiting any node.

        With ``protect_future`` each leg also detours around targets later
        in the order, so a leg never enters a constrained node (e.g. a
        two-ended device) from the side that strands the rest of the tour.
        """
        kernel = self.kernel
        shortest, mask, bit = kernel.shortest, kernel.mask, kernel.bit
        # later[i]: the mask of order[i + 1:] (all zero without protection).
        later = [0] * len(order)
        if protect_future:
            for i in range(len(order) - 1, 0, -1):
                later[i - 1] = later[i] | bit.get(order[i], 0)
        path: List[str] = [src]
        length = 0.0
        current = src
        covered = bit.get(src, 0)
        for i, target in enumerate(order):
            if covered & bit.get(target, 0):
                continue
            try:
                leg, leg_mm = shortest(current, target, banned | covered | later[i])
            except RoutingError:
                return None
            path.extend(leg[1:])
            length += leg_mm
            covered |= mask(leg)
            current = target
        try:
            leg, leg_mm = shortest(current, dst, banned | covered)
        except RoutingError:
            return None
        path.extend(leg[1:])
        length += leg_mm
        return tuple(path), length

    def _build_relaxed(
        self,
        src: str,
        remaining: Iterable[str],
        dst: str,
        banned: int,
    ) -> RoutedPath:
        """Nearest-neighbor walk that may revisit nodes (last resort)."""
        mask = self.kernel.mask
        remaining = set(remaining)
        path: List[str] = [src]
        visited = mask(path)
        length = 0.0
        current = src
        while remaining:
            current, (leg, leg_mm) = self._nearest_leg(
                current, remaining, banned, visited
            )
            remaining.difference_update(leg)
            path.extend(leg[1:])
            visited |= mask(leg)
            length += leg_mm
        last_leg, last_mm = self._leg(current, dst, banned, visited)
        path.extend(last_leg[1:])
        length += last_mm
        return tuple(path), length

    def _nearest_leg(
        self,
        current: str,
        remaining: Set[str],
        banned: int,
        visited: int,
    ) -> Tuple[str, RoutedPath]:
        """Shortest leg from ``current`` to the closest remaining target.

        A target's distance is its leg's: off the visited nodes where
        possible, else relaxed.  Only the chosen leg is routed.
        """
        targets = sorted(remaining)
        dist = self._distances(current, targets, banned | visited)
        cut_off = [t for t in targets if dist[t] == _INF]
        if cut_off:
            dist.update(self._distances(current, cut_off, banned))
        nearest = min(targets, key=dist.__getitem__)
        if dist[nearest] == _INF:
            raise RoutingError(f"cannot reach any of {targets} from {current!r}")
        return nearest, self._leg(current, nearest, banned, visited)

    def _leg(
        self,
        src: str,
        dst: str,
        banned: int,
        visited: int,
    ) -> RoutedPath:
        """One leg; try to stay simple first, then relax the visited mask."""
        try:
            return self.kernel.shortest(src, dst, banned | visited)
        except RoutingError:
            return self.kernel.shortest(src, dst, banned)

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
