"""The :class:`Chip` flow-network model.

A chip is an undirected graph whose nodes are the cells of the virtual grid
that carry something: channel junctions (``s_1..s_16`` in Fig. 2), devices,
flow ports (fluid inlets, the paper's :math:`F_p`) and waste ports (outlets,
:math:`W_p`).  Edges are channel segments; each has a physical length in mm
(one grid-cell pitch by default).

Flow paths — for reagent transport, excess/waste removal, and wash — are
node sequences through this graph, e.g.
``["in1", "s2", "s3", "s4", "out1"]`` (wash path :math:`w_1` of Table I).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.arch.device import Device, DeviceKind
from repro.errors import ArchitectureError, RoutingError
from repro.units import PhysicalParameters, DEFAULT_PARAMETERS

#: A flow path: a sequence of node ids from a source to a sink.
FlowPath = Tuple[str, ...]


class NodeKind(enum.Enum):
    """Role of a node in the chip flow network."""

    CHANNEL = "channel"
    DEVICE = "device"
    FLOW_PORT = "flow_port"
    WASTE_PORT = "waste_port"


class Chip:
    """A continuous-flow biochip architecture.

    Build instances through :class:`~repro.arch.builder.ChipBuilder` (or the
    synthesis flow); the constructor validates the assembled network.

    ``nodes`` maps every node id to its :class:`NodeKind`, in the order the
    network iterates them; ``channels`` lists ``(a, b, length_mm)``
    segments between declared nodes (a repeated segment keeps its first
    position and takes the last length).  The network is stored as one
    insertion-ordered adjacency dict, so node, neighbour and edge order are
    those the nodes and channels were declared in — routing tie-breaks and
    float sums over edges depend on that order.
    """

    def __init__(
        self,
        name: str,
        nodes: Mapping[str, NodeKind],
        channels: Iterable[Tuple[str, str, float]],
        devices: Dict[str, Device],
        flow_ports: Sequence[str],
        waste_ports: Sequence[str],
        parameters: PhysicalParameters = DEFAULT_PARAMETERS,
        *,
        positions: Optional[Mapping[str, Tuple[float, float]]] = None,
    ) -> None:
        self.name = name
        self._kind: Dict[str, NodeKind] = dict(nodes)
        self._pos: Dict[str, Tuple[float, float]] = dict(positions or {})
        #: node -> {neighbour: segment length in mm}, both directions.
        self._adj: Dict[str, Dict[str, float]] = {n: {} for n in self._kind}
        for a, b, length_mm in channels:
            if a not in self._adj or b not in self._adj:
                raise ArchitectureError(f"channel {a!r}-{b!r} names an undeclared node")
            if a == b:
                raise ArchitectureError(f"self-loop channel on {a!r}")
            self._adj[a][b] = length_mm
            self._adj[b][a] = length_mm
        self.devices = dict(devices)
        self.flow_ports = list(flow_ports)
        self.waste_ports = list(waste_ports)
        self.parameters = parameters
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if not self.flow_ports:
            raise ArchitectureError(f"chip {self.name!r} has no flow ports")
        if not self.waste_ports:
            raise ArchitectureError(f"chip {self.name!r} has no waste ports")
        for node in list(self.devices) + self.flow_ports + self.waste_ports:
            if node not in self._adj:
                raise ArchitectureError(f"node {node!r} referenced but absent from the network")
        for name, device in self.devices.items():
            if name != device.name:
                raise ArchitectureError(
                    f"device registered under {name!r} but named {device.name!r}"
                )
        parts = self.components()
        if len(parts) > 1:
            raise ArchitectureError(
                f"chip {self.name!r} flow network is disconnected "
                f"(components: {[len(c) for c in parts]})"
            )
        for port in self.flow_ports + self.waste_ports:
            if not self._adj[port]:
                raise ArchitectureError(f"port {port!r} is not attached to any channel")

    # -- network queries ----------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """All node ids, in declaration order."""
        return list(self._adj)

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is part of the flow network."""
        return node in self._adj

    def edges(self) -> List[Tuple[str, str]]:
        """Every channel segment once, as ``(a, b)``.

        Nodes are walked in declaration order and each yields its
        segments to not-yet-walked neighbours, in neighbour order (the
        order ``networkx.Graph.edges`` gives).
        """
        walked = set()
        out = []
        for node, nbrs in self._adj.items():
            out.extend((node, nbr) for nbr in nbrs if nbr not in walked)
            walked.add(node)
        return out

    def has_edge(self, a: str, b: str) -> bool:
        """Whether a channel segment joins ``a`` and ``b``."""
        return b in self._adj.get(a, ())

    def neighbors(self, node: str) -> List[str]:
        """Adjacent nodes in the flow network (the paper's ``AC`` sets)."""
        return list(self._adj[node])

    def degree(self, node: str) -> int:
        """Number of channel segments at ``node``."""
        return len(self._adj[node])

    def components(self, nodes: Optional[Iterable[str]] = None) -> List[List[str]]:
        """Connected components of the network induced by ``nodes``.

        ``nodes`` defaults to the whole chip.  Components come in the order
        of their first node in ``nodes``; each lists its nodes breadth-first.
        """
        order = self._adj if nodes is None else list(nodes)
        keep = set(order)
        seen = set()
        out = []
        for start in order:
            if start in seen:
                continue
            seen.add(start)
            component = [start]
            for node in component:  # grows while it is walked
                for nbr in self._adj[node]:
                    if nbr in keep and nbr not in seen:
                        seen.add(nbr)
                        component.append(nbr)
            out.append(component)
        return out

    # -- node queries -----------------------------------------------------

    def kind_of(self, node: str) -> NodeKind:
        """The :class:`NodeKind` of ``node``."""
        return self._kind[node]

    def is_port(self, node: str) -> bool:
        """Whether ``node`` is a flow or waste port."""
        return self.kind_of(node) in (NodeKind.FLOW_PORT, NodeKind.WASTE_PORT)

    def is_device(self, node: str) -> bool:
        """Whether ``node`` hosts a device."""
        return node in self.devices

    def position(self, node: str) -> Optional[Tuple[float, float]]:
        """Layout coordinates of ``node`` if known (for rendering)."""
        return self._pos.get(node)

    def devices_of_kind(self, kind: DeviceKind) -> List[Device]:
        """All devices of a given kind, in name order."""
        return sorted(
            (d for d in self.devices.values() if d.kind is kind),
            key=lambda d: d.name,
        )

    @property
    def channel_nodes(self) -> List[str]:
        """All plain channel/junction nodes."""
        return [n for n, kind in self._kind.items() if kind is NodeKind.CHANNEL]

    @property
    def washable_nodes(self) -> List[str]:
        """Nodes that can hold residue: channels and devices (not ports)."""
        return [n for n in self._adj if not self.is_port(n)]

    # -- geometry -------------------------------------------------------------

    def edge_length_mm(self, a: str, b: str) -> float:
        """Physical length of the channel segment between two adjacent nodes."""
        length = self._adj.get(a, {}).get(b)
        if length is None:
            raise RoutingError(f"no channel segment between {a!r} and {b!r}")
        return length

    def path_length_mm(self, path: Sequence[str]) -> float:
        """Total physical length of a flow path (sum of its segments)."""
        return sum(self.edge_length_mm(a, b) for a, b in zip(path, path[1:]))

    def path_cells(self, path: Sequence[str]) -> int:
        """Number of segments in a flow path (its cell count analog)."""
        return max(0, len(path) - 1)

    def check_path(self, path: Sequence[str]) -> FlowPath:
        """Validate that ``path`` is a walk in the network; return it as a tuple."""
        if len(path) < 2:
            raise RoutingError(f"flow path needs at least two nodes, got {list(path)}")
        for a, b in zip(path, path[1:]):
            if not self.has_edge(a, b):
                raise RoutingError(f"path hop {a!r} -> {b!r} is not a channel segment")
        return tuple(path)

    # -- convenience ----------------------------------------------------------

    def transport_time_s(self, path: Sequence[str]) -> int:
        """Schedule ticks needed to push a plug along ``path``."""
        return self.parameters.transport_time_s(self.path_cells(path))

    def wash_time_s(self, path: Sequence[str]) -> int:
        """Duration of a wash along ``path`` (Eq. 17)."""
        return self.parameters.wash_time_s(self.path_cells(path))

    def stats(self) -> Dict[str, int]:
        """Size summary of the architecture."""
        return {
            "nodes": len(self._adj),
            "edges": sum(map(len, self._adj.values())) // 2,
            "devices": len(self.devices),
            "flow_ports": len(self.flow_ports),
            "waste_ports": len(self.waste_ports),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"Chip({self.name!r}, {s['devices']} devices, {s['nodes']} nodes, "
            f"{s['flow_ports']}+{s['waste_ports']} ports)"
        )


def interior_nodes(path: Iterable[str], chip: Chip) -> List[str]:
    """Non-port nodes of a flow path — the ones that can be contaminated."""
    return [n for n in path if not chip.is_port(n)]
