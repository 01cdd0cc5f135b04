"""CSR-backed shortest-path kernel for chip flow networks.

Candidate generation issues *thousands* of routing queries per chip
(every visit-order step of every port pair of every cluster), so routing
must not walk the chip's dict adjacency per query.  This module
precomputes, once per :class:`Chip`, a compressed-sparse-row (CSR)
adjacency — index-mapped nodes with ``array``-backed
offset/target/weight columns — and answers three kinds of query over
plain ints and floats: a bidirectional Dijkstra for one leg
(:meth:`PathKernel.shortest`), a single-source Dijkstra that returns a
whole distance row (:meth:`PathKernel.distances_from`), and Yen's
algorithm for k shortest loop-free paths.

A distance row answers "how far is every remaining target?" with one
search where point-to-point legs would take one search per target.  Its
entries equal :meth:`~PathKernel.shortest` lengths bit for bit when every
sum of segment lengths is exact in floating point (then addition order
cannot matter); :attr:`PathKernel.exact_sums` records that, computed once
from the weights.  It holds on every benchmark chip, where each segment is
1.5 mm; callers fall back to pairwise legs where it does not.

A ban set is an ``int`` bitmask over the kernel's node indices: bit ``i``
bans ``nodes[i]`` (:attr:`PathKernel.bit`, :meth:`PathKernel.mask`), and
``0`` bans nothing.  Callers build masks with integer ``|`` rather than
allocating a set per query, and a search decodes its mask once into a
``bytearray`` stop vector.  Two ban sets share a mask exactly when they
ban the same chip nodes; names that are not chip nodes have no bit.

Legs and rows share one avoid-set-aware LRU, keyed by
``(src, dst, banned)`` and ``(src, banned)`` and bounded by one
``cache_size``.  Routing repeats itself heavily — cluster merging and
candidate generation probe the same legs under the same avoid sets again
and again — so the cache converts the dominant routing cost into
dictionary lookups.  Negative results (no route) are cached too:
unreachable probes are just as repetitive.  Hit/miss counts (a row
lookup counts once) are kept per kernel and published to the metrics
registry by the pipeline stages that drive routing (see
:meth:`repro.core.stages.PathGenStage`).

The LRU is the working memory of one plan, and a short one: nine hits in
ten land on an entry stored by the same phase (synthesis, DAWO
clustering, PDW clustering, candidate generation).  Across phases, PDW
clustering hits what DAWO clustering stored and a few hundred hits land
on synthesis's entries; candidate generation never hits an entry
clustering stored.  So :data:`DEFAULT_CACHE_SIZE` is a few thousand
entries, below the 14,726 a cold Synthetic3 plan stores, and
:class:`~repro.core.stages.PathGenStage`, the last stage that routes,
empties it (:meth:`PathKernel.clear_cache`) so the ILP solve does not
carry it.  The CSR snapshot and the hit/miss counters outlive the clear.
A caller that plans the same chip again in one process (an ablation, a
multi-scenario degrade matrix) therefore re-routes each plan from an
empty LRU; docs/PERFORMANCE.md "Where peak memory goes" has the measured
cost.  A Pareto sweep routes once (:meth:`repro.core.PathDriverWash.sweep`).

Determinism: neighbor lists preserve the graph's adjacency order and the
heap breaks distance ties by insertion order (like networkx's Dijkstra),
so repeated queries — including across processes — return identical
paths.  Every leg query returns ``(path, length_mm)``: the kernel already
accumulated the length, so callers never re-walk the path to price it.
"""

from __future__ import annotations

import weakref
from array import array
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.arch.chip import Chip, FlowPath
from repro.errors import RoutingError
from repro.obs.trace import span

#: Default bound on cached entries (legs plus rows) per kernel, set by
#: measured reuse: a cold Synthetic3 plan stores 14,726 entries, and this
#: bound costs it 64 of its 39,211 hits (Synthetic2: 258 of 55,492) while
#: keeping the LRU's heap small enough not to sit under the ILP solve.  It
#: bounds entries, not bytes.  A key's ban mask is one int of
#: ``len(nodes)`` bits (~64 bytes on a 288-node chip); a leg value holds
#: its path tuple and a row value one double per node.  See
#: docs/PERFORMANCE.md "The cache" for the per-phase reuse and the sweep.
DEFAULT_CACHE_SIZE = 4096

_INF = float("inf")

#: ``bin(mask)`` digits to stop-vector bytes.
_BITS_TO_STOPS = bytes.maketrans(b"01", b"\x00\x01")


class PathKernel:
    """Dijkstra/Yen queries over a CSR snapshot of one chip's network.

    Build via :func:`kernel_for` (cached per chip) rather than directly;
    the constructor walks the whole graph once.  A kernel is not
    thread-safe and need not be: one process plans one benchmark at a
    time on one thread (suite attempts run one after another or in
    forked children, and each ``pdw serve`` job plans in its own forked
    child, with its own chip and hence its own kernel).
    """

    def __init__(self, chip: Chip, cache_size: Optional[int] = None):
        with span("routing.kernel.build", chip=chip.name):
            # Weak, not strong: kernels live in a WeakKeyDictionary keyed
            # by chip, and a value holding its own key alive would make
            # every entry immortal — one leaked kernel (plus its LRU) per
            # chip instance, forever.
            self._chip_ref = weakref.ref(chip)
            #: Node order: the chip's declaration order, and neighbour
            #: lists in the chip's adjacency order, so tie-breaks match
            #: the networkx-era router.
            self.nodes: List[str] = chip.nodes
            self.index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
            #: Ban-mask bit of each node: ``1 << index``.
            self.bit: Dict[str, int] = {n: 1 << i for n, i in self.index.items()}
            n = len(self.nodes)
            offsets = array("l", [0]) if n else array("l")
            targets = array("l")
            weights = array("d")
            for node in self.nodes:
                for nbr in chip.neighbors(node):
                    targets.append(self.index[nbr])
                    weights.append(float(chip.edge_length_mm(node, nbr)))
                offsets.append(len(targets))
            self.offsets = offsets
            self.targets = targets
            self.weights = weights
            #: Whether distance rows equal pairwise leg lengths bit for bit.
            self.exact_sums = sums_are_exact(weights)
            #: Legs keyed ``(src, dst, banned)`` and rows keyed
            #: ``(src, banned)``: the key lengths differ, so one LRU holds
            #: both under one bound.
            self._cache: "OrderedDict[tuple, object]" = OrderedDict()
            self._cache_size = DEFAULT_CACHE_SIZE if cache_size is None else int(cache_size)
            self.cache_hits = 0
            self.cache_misses = 0

    @property
    def chip(self) -> Optional[Chip]:
        """The chip this kernel snapshots, or ``None`` once it is dropped."""
        return self._chip_ref()

    # -- cache --------------------------------------------------------------

    def cache_info(self) -> Tuple[int, int, int]:
        """``(hits, misses, current size)`` over legs and rows together."""
        return self.cache_hits, self.cache_misses, len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached leg and row; the hit/miss counters stay."""
        self._cache.clear()

    def _store(self, key: tuple, value: object) -> None:
        self._cache[key] = value
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # -- ban masks ----------------------------------------------------------

    def mask(self, names: Iterable[str]) -> int:
        """The ban mask of ``names``; names that are not chip nodes are ignored."""
        bit = self.bit
        m = 0
        for name in names:
            m |= bit.get(name, 0)
        return m

    def _stops(self, banned: int, *free: int) -> bytearray:
        """``banned`` decoded to one byte per node, 1 where the node is banned.

        The node indices in ``free`` — a search's own endpoints — are
        never banned.
        """
        n = len(self.nodes)
        stop = bytearray(n)
        if banned:
            bits = bin(banned)[:1:-1].encode().translate(_BITS_TO_STOPS)[:n]
            stop[: len(bits)] = bits
        for i in free:
            stop[i] = 0
        return stop

    # -- distance rows ------------------------------------------------------

    def distances_from(self, src: str, banned: int = 0) -> array:
        """Shortest distance from ``src`` to every node, indexed like :attr:`nodes`.

        One single-source Dijkstra.  Banned nodes are reached as endpoints
        but never passed through, and ``src`` itself is never banned — the
        rule :meth:`shortest` applies to its endpoints — so entry ``t`` is
        ``shortest(src, t, banned)``'s length, or ``inf`` when that raises
        (an unknown ``src`` gives a row of ``inf``).  Equal bit for bit
        only when :attr:`exact_sums` holds.  The row is cached and shared:
        callers must not mutate it.
        """
        key = (src, banned)
        row = self._cache.get(key)
        if row is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return row  # type: ignore[return-value]
        self.cache_misses += 1
        row = self._row_uncached(src, banned)
        self._store(key, row)
        return row

    def _row_uncached(self, src: str, banned: int) -> array:
        offsets, targets, weights = self.offsets, self.targets, self.weights
        n = len(self.nodes)
        dist: List[float] = [_INF] * n
        s = self.index.get(src)
        if s is None:
            return array("d", dist)
        stop = self._stops(banned, s)
        seen: List[float] = [_INF] * n
        seen[s] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = heappop(heap)
            if dist[u] != _INF:
                continue  # stale heap entry; u already finalized
            dist[u] = d
            if stop[u]:
                continue  # a banned node ends a path, it never relays one
            for e in range(offsets[u], offsets[u + 1]):
                v = targets[e]
                nd = d + weights[e]
                if nd < seen[v]:
                    seen[v] = nd
                    heappush(heap, (nd, v))
        return array("d", dist)

    # -- shortest path ------------------------------------------------------

    def shortest(
        self, src: str, dst: str, banned: int = 0
    ) -> Tuple[FlowPath, float]:
        """Shortest path and its physical length, avoiding ``banned``.

        ``banned`` never applies to the endpoints themselves.  Raises
        :class:`RoutingError` when no route exists (that outcome is
        cached as well — unreachable probes repeat just like reachable
        ones).
        """
        key = (src, dst, banned)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            if hit.__class__ is tuple:
                return hit  # type: ignore[return-value]
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        self.cache_misses += 1
        result = self._shortest_uncached(src, dst, banned)
        self._store(key, result if result is not None else _NO_ROUTE)
        if result is None:
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        return result

    def _shortest_uncached(
        self, src: str, dst: str, banned: int
    ) -> Optional[Tuple[FlowPath, float]]:
        index = self.index
        s = index.get(src)
        t = index.get(dst)
        if s is None or t is None:
            return None
        if s == t:
            return (src,), 0.0
        return self._bidijkstra(s, t, self._stops(banned, s, t))

    def _bidijkstra(
        self, s: int, t: int, stop: bytearray
    ) -> Optional[Tuple[FlowPath, float]]:
        """Bidirectional Dijkstra over the CSR arrays.

        A faithful port of networkx's ``bidirectional_dijkstra`` (which
        backed the router before this kernel existed): one shared FIFO
        tie counter across both fringes, predecessor updates on strict
        improvement only, and the first equal-cost meeting point wins.
        Equal-cost routes therefore come out *identical* to the
        networkx-era router, keeping synthesized transports and wash
        paths stable across the optimization.
        """
        offsets, targets, weights = self.offsets, self.targets, self.weights
        n = len(self.nodes)
        done = ([False] * n, [False] * n)
        seen = ([_INF] * n, [_INF] * n)
        preds = ([-1] * n, [-1] * n)
        fringe: Tuple[List[Tuple[float, int, int]], List[Tuple[float, int, int]]] = (
            [(0.0, 0, s)],
            [(0.0, 1, t)],
        )
        seen[0][s] = 0.0
        seen[1][t] = 0.0
        counter = 2
        finaldist = _INF
        meetnode = -1
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if done[direction][v]:
                continue  # shortest path to v already found
            done[direction][v] = True
            if done[1 - direction][v]:
                # Scanned in both directions: the best meeting point so
                # far closes the shortest path.
                break
            d_seen = seen[direction]
            o_seen = seen[1 - direction]
            d_done = done[direction]
            d_preds = preds[direction]
            for e in range(offsets[v], offsets[v + 1]):
                w = targets[e]
                if d_done[w] or stop[w]:
                    continue
                vw = dist + weights[e]
                if vw < d_seen[w]:
                    d_seen[w] = vw
                    heappush(fringe[direction], (vw, counter, w))
                    counter += 1
                    d_preds[w] = v
                    if o_seen[w] != _INF:
                        total = vw + o_seen[w]
                        if total < finaldist:
                            finaldist = total
                            meetnode = w
        else:
            return None  # a fringe drained without the searches meeting
        nodes = self.nodes
        fwd: List[int] = []
        u = meetnode
        while u != -1:
            fwd.append(u)
            u = preds[0][u]
        fwd.reverse()
        u = preds[1][meetnode]
        while u != -1:
            fwd.append(u)
            u = preds[1][u]
        return tuple(nodes[i] for i in fwd), finaldist

    def _dijkstra(
        self,
        s: int,
        t: int,
        stop: bytearray,
        banned_edges: Iterable[Tuple[int, int]],
    ) -> Optional[Tuple[List[int], float]]:
        """Parent array + distance to ``t``, or ``None`` when unreachable.

        Ties break by discovery order (a FIFO counter in the heap) and
        parents are only replaced on *strict* improvement, mirroring
        networkx so equal-cost routes come out in a stable, comparable
        order.
        """
        offsets, targets, weights = self.offsets, self.targets, self.weights
        n = len(self.nodes)
        dist: List[float] = [_INF] * n
        seen: List[float] = [_INF] * n
        parent: List[int] = [-1] * n
        edge_ban = set(banned_edges) if banned_edges else None
        heap: List[Tuple[float, int, int]] = [(0.0, 0, s)]
        seen[s] = 0.0
        counter = 1
        while heap:
            d, _, u = heappop(heap)
            if dist[u] != _INF:
                continue  # stale heap entry; u already finalized
            dist[u] = d
            if u == t:
                return parent, d
            for e in range(offsets[u], offsets[u + 1]):
                v = targets[e]
                if dist[v] != _INF or stop[v]:
                    continue
                if edge_ban is not None and (u, v) in edge_ban:
                    continue
                nd = d + weights[e]
                if nd < seen[v]:
                    seen[v] = nd
                    parent[v] = u
                    heappush(heap, (nd, counter, v))
                    counter += 1
        return None

    def _walk_back(
        self, result: Tuple[List[int], float], s: int, t: int
    ) -> Tuple[FlowPath, float]:
        parent, d = result
        nodes = self.nodes
        rev = [t]
        u = t
        while u != s:
            u = parent[u]
            rev.append(u)
        rev.reverse()
        return tuple(nodes[i] for i in rev), d

    # -- k shortest loop-free paths (Yen) -----------------------------------

    def k_shortest(
        self,
        src: str,
        dst: str,
        k: int,
        banned: int = 0,
    ) -> List[Tuple[FlowPath, float]]:
        """Up to ``k`` simple paths in increasing length order (Yen).

        Length ties break on the node sequence so the ordering is total
        and deterministic.  Raises :class:`RoutingError` when not even
        one path exists.
        """
        if k < 1:
            return []
        first = self.shortest(src, dst, banned)  # raises when unreachable
        found: List[Tuple[FlowPath, float]] = [first]
        candidates: List[Tuple[float, FlowPath]] = []
        in_candidates: Set[FlowPath] = set()
        index = self.index
        while len(found) < k:
            prev_path, _ = found[-1]
            prev_idx = [index[n] for n in prev_path]
            root_len = 0.0
            for i in range(len(prev_path) - 1):
                root = prev_path[: i + 1]
                spur = prev_path[i]
                # Edges leaving the spur node along any already-found or
                # queued path sharing this root are off limits.
                edge_ban: Set[Tuple[int, int]] = set()
                for path, _ in found:
                    if path[: i + 1] == root and len(path) > i + 1:
                        a, b = index[path[i]], index[path[i + 1]]
                        edge_ban.add((a, b))
                        edge_ban.add((b, a))
                spur_result = self._spur(
                    spur, dst, banned | self.mask(root[:-1]), frozenset(edge_ban)
                )
                if spur_result is not None:
                    spur_path, spur_len = spur_result
                    total = root[:-1] + spur_path
                    if total not in in_candidates:
                        in_candidates.add(total)
                        heappush(candidates, (root_len + spur_len, total))
                root_len += self._edge_weight(prev_idx[i], prev_idx[i + 1])
            if not candidates:
                break
            length, path = heappop(candidates)
            found.append((path, length))
        return found

    def _spur(
        self,
        src: str,
        dst: str,
        banned: int,
        edge_ban: FrozenSet[Tuple[int, int]],
    ) -> Optional[Tuple[FlowPath, float]]:
        index = self.index
        s, t = index.get(src), index.get(dst)
        if s is None or t is None or s == t:
            return None
        result = self._dijkstra(s, t, self._stops(banned, s, t), edge_ban)
        if result is None:
            return None
        return self._walk_back(result, s, t)

    def _edge_weight(self, u: int, v: int) -> float:
        for e in range(self.offsets[u], self.offsets[u + 1]):
            if self.targets[e] == v:
                return self.weights[e]
        raise RoutingError(
            f"no channel segment between {self.nodes[u]!r} and {self.nodes[v]!r}"
        )


def sums_are_exact(weights: Iterable[float]) -> bool:
    """Whether every sum of segment lengths is exact in floating point.

    A float is a dyadic rational, so all weights are whole multiples of
    ``1/D`` for the largest denominator ``D`` among them.  When twice the
    total of all weights is at most ``2**53`` units of ``1/D`` — twice,
    because a bidirectional search may add two partial paths that share
    segments — every partial path sum is such a multiple that a double
    holds exactly.  Addition order then cannot change a distance, so a
    single-source row and a bidirectional leg agree bit for bit.
    """
    ratios = []
    for w in weights:
        if not 0.0 <= w < _INF:
            return False
        ratios.append(w.as_integer_ratio())
    if not ratios:
        return True
    denom = max(den for _, den in ratios)
    units = sum(num * (denom // den) for num, den in ratios)
    return 2 * units <= 2**53


#: Sentinel cached for unreachable (src, dst, banned) queries.
_NO_ROUTE = object()

_KERNELS: "weakref.WeakKeyDictionary[Chip, PathKernel]" = weakref.WeakKeyDictionary()


def kernel_for(chip: Chip) -> PathKernel:
    """The (cached) :class:`PathKernel` of ``chip``.

    Kernels are keyed by chip identity in a weak dictionary: a chip's
    network never mutates after construction, and dropping the chip
    drops its kernel.
    """
    kernel = _KERNELS.get(chip)
    if kernel is None:
        kernel = _KERNELS[chip] = PathKernel(chip)
    return kernel


def cache_counters(chip: Chip) -> Tuple[int, int]:
    """``(hits, misses)`` of the chip's kernel cache (0, 0 when unbuilt)."""
    kernel = _KERNELS.get(chip)
    if kernel is None:
        return 0, 0
    hits, misses, _ = kernel.cache_info()
    return hits, misses
