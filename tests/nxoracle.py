"""networkx twins of the runtime graphs, for oracle tests.

The runtime keeps its two graphs — the assay's sequencing graph and the
chip's channel network — in insertion-ordered dicts.  networkx stays a
test-only dependency: these helpers rebuild each graph in networkx from
the very declarations the runtime received, so tests can check that every
query (and every iteration order) matches the reference library.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Tuple

import networkx as nx

from repro.arch.chip import Chip

WEIGHT = "length_mm"


@contextmanager
def recording_chips() -> Iterator[List[Tuple[Chip, nx.Graph]]]:
    """Record ``(chip, nx twin)`` for every :class:`Chip` built inside.

    The twin is built the way the chip network was built before it left
    networkx: every declared node in order, then ``add_edge`` per declared
    channel in order.
    """
    recorded: List[Tuple[Chip, nx.Graph]] = []
    original = Chip.__init__

    def init(self, name, nodes, channels, *args, **kwargs):
        nodes, channels = dict(nodes), list(channels)
        twin = nx.Graph()
        for node, kind in nodes.items():
            twin.add_node(node, kind=kind)
        for a, b, length_mm in channels:
            twin.add_edge(a, b, **{WEIGHT: length_mm})
        original(self, name, nodes, channels, *args, **kwargs)
        recorded.append((self, twin))

    Chip.__init__ = init
    try:
        yield recorded
    finally:
        Chip.__init__ = original


def with_twin(build: Callable[[], Chip]) -> Tuple[Chip, nx.Graph]:
    """Call ``build`` and return the chip it made plus the chip's nx twin."""
    with recording_chips() as recorded:
        chip = build()
    return next((c, twin) for c, twin in recorded if c is chip)


def nx_chain_order(graph: nx.Graph, targets: List[str]):
    """The networkx-era ``Router._chain_order``, verbatim."""
    if len(targets) == 1:
        return list(targets)
    sub = graph.subgraph(targets)
    degrees = dict(sub.degree())
    if any(d > 2 for d in degrees.values()):
        return None
    if not nx.is_connected(sub):
        return None
    endpoints = [n for n, d in degrees.items() if d <= 1]
    if len(endpoints) != 2:
        return None
    order = [min(endpoints)]
    seen = {order[0]}
    while len(order) < len(targets):
        nxt = [n for n in sub.neighbors(order[-1]) if n not in seen]
        if not nxt:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    return order


def nx_csr(graph: nx.Graph, default_mm: float):
    """The networkx-era ``PathKernel`` CSR: (nodes, offsets, targets, weights)."""
    nodes = list(graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    offsets, targets, weights = [0] if nodes else [], [], []
    for node in nodes:
        for nbr, data in graph.adj[node].items():
            targets.append(index[nbr])
            weights.append(float(data.get(WEIGHT, default_mm)))
        offsets.append(len(targets))
    return nodes, offsets, targets, weights
