"""A pairwise reference for :meth:`Router.path_through_mm`, for oracle tests.

The router answers "how far is every remaining target?" from one kernel
distance row.  This reference keeps the older formulation, one
point-to-point :meth:`PathKernel.shortest` query per (source, target)
pair, so tests can check that the row-based router returns the same
covering paths, the same lengths and the same failures.  It shares :meth:`Router._chain_order` (which involves no
distances) and nothing else.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.arch.pathkernel import kernel_for
from repro.arch.routing import Router
from repro.errors import RoutingError

RoutedPath = Tuple[FlowPath, float]


class PairwiseRouter:
    """``path_through_mm`` built from pairwise shortest-path queries only."""

    def __init__(self, chip: Chip, base_avoid: Optional[Iterable[str]] = None):
        self.chip = chip
        self.kernel = kernel_for(chip)
        self._chain = Router(chip)._chain_order
        ports = frozenset(chip.flow_ports) | frozenset(chip.waste_ports)
        self._base_ban = ports | frozenset(base_avoid or ())
        #: Where the last :meth:`path_through_mm` result came from:
        #: ``"simple"`` (a visit-order build) or ``"walk"`` (the relaxed walk).
        self.last_origin = ""

    def _shortest(self, src, dst, avoid) -> RoutedPath:
        banned = (self._base_ban | frozenset(avoid)) - {src, dst}
        return self.kernel.shortest(src, dst, self.kernel.mask(banned))

    def _dist(self, a, b, avoid) -> float:
        try:
            return self._shortest(a, b, avoid)[1]
        except RoutingError:
            return float("inf")

    def path_through_mm(
        self,
        src: str,
        targets: Sequence[str],
        dst: str,
        avoid: Optional[Iterable[str]] = None,
    ) -> RoutedPath:
        remaining: Set[str] = set(targets) - {src, dst}
        base_avoid = set(avoid or ())
        self.last_origin = "simple"
        if not remaining:
            return self._shortest(src, dst, base_avoid)
        best: Optional[RoutedPath] = None
        for order in self._visit_orders(src, sorted(remaining), base_avoid):
            for protect_future in (True, False):
                routed = self._build_simple(src, order, dst, base_avoid, protect_future)
                if routed is not None and (best is None or routed[1] < best[1]):
                    best = routed
        if best is not None:
            return best
        self.last_origin = "walk"
        return self._build_relaxed(src, remaining, dst, base_avoid)

    def _visit_orders(self, src, targets: List[str], base_avoid) -> List[List[str]]:
        ascending = sorted(targets, key=lambda t: (self._dist(src, t, base_avoid), t))
        greedy: List[str] = []
        pool = list(targets)
        current = src
        while pool:
            nxt = min(pool, key=lambda t: (self._dist(current, t, base_avoid), t))
            greedy.append(nxt)
            pool.remove(nxt)
            current = nxt
        orders = [greedy, ascending, list(reversed(ascending))]
        chain = self._chain(targets)
        if chain is not None:
            orders = [chain, list(reversed(chain))] + orders
        unique: List[List[str]] = []
        for order in orders:
            if order not in unique:
                unique.append(order)
        return unique

    def _build_simple(self, src, order, dst, base_avoid, protect_future):
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
                leg, leg_mm = self._shortest(current, target, avoid)
            except RoutingError:
                return None
            path.extend(leg[1:])
            length += leg_mm
            covered.update(leg)
            current = target
        try:
            leg, leg_mm = self._shortest(current, dst, base_avoid | (covered - {current}))
        except RoutingError:
            return None
        path.extend(leg[1:])
        length += leg_mm
        return tuple(path), length

    def _build_relaxed(self, src, remaining, dst, base_avoid) -> RoutedPath:
        remaining = set(remaining)
        path: List[str] = [src]
        length = 0.0
        current = src
        while remaining:
            best = None
            for target in sorted(remaining):
                try:
                    leg, leg_mm = self._leg(current, target, base_avoid, path)
                except RoutingError:
                    continue
                if best is None or leg_mm < best[0]:
                    best = (leg_mm, target, leg)
            if best is None:
                raise RoutingError(f"cannot reach any of {sorted(remaining)}")
            leg_mm, current, leg = best
            path.extend(leg[1:])
            length += leg_mm
            remaining -= set(leg)
        leg, leg_mm = self._leg(current, dst, base_avoid, path)
        path.extend(leg[1:])
        return tuple(path), length + leg_mm

    def _leg(self, src, dst, base_avoid, visited) -> RoutedPath:
        try:
            return self._shortest(src, dst, base_avoid | set(visited))
        except RoutingError:
            return self._shortest(src, dst, base_avoid)
