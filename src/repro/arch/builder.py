"""Fluent construction of :class:`~repro.arch.chip.Chip` instances."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.chip import Chip, NodeKind
from repro.arch.device import Device, DeviceKind
from repro.errors import ArchitectureError
from repro.units import PhysicalParameters, DEFAULT_PARAMETERS


class ChipBuilder:
    """Incrementally assemble a chip flow network.

    Example
    -------
    >>> b = ChipBuilder("demo")
    >>> _ = b.add_flow_port("in1").add_waste_port("out1")
    >>> _ = b.add_device("mixer", DeviceKind.MIXER)
    >>> _ = b.add_junctions("s1", "s2")
    >>> _ = b.connect("in1", "s1", "mixer", "s2", "out1")
    >>> chip = b.build()
    >>> chip.path_length_mm(["in1", "s1", "mixer"])
    6.0
    """

    def __init__(self, name: str, parameters: PhysicalParameters = DEFAULT_PARAMETERS):
        self.name = name
        self.parameters = parameters
        self._kinds: Dict[str, NodeKind] = {}
        self._positions: Dict[str, Tuple[float, float]] = {}
        self._channels: List[Tuple[str, str, float]] = []
        self._devices: Dict[str, Device] = {}
        self._flow_ports: List[str] = []
        self._waste_ports: List[str] = []

    # -- nodes ---------------------------------------------------------------

    def _add_node(self, node: str, kind: NodeKind, pos: Optional[Tuple[float, float]]) -> None:
        if node in self._kinds:
            raise ArchitectureError(f"duplicate node {node!r}")
        self._kinds[node] = kind
        if pos is not None:
            self._positions[node] = pos

    def add_junction(self, node: str, pos: Optional[Tuple[float, float]] = None) -> "ChipBuilder":
        """Add a plain channel junction node (a ``s_i`` switch)."""
        self._add_node(node, NodeKind.CHANNEL, pos)
        return self

    def add_junctions(self, *nodes: str) -> "ChipBuilder":
        """Add several junction nodes at once."""
        for node in nodes:
            self.add_junction(node)
        return self

    def add_device(
        self,
        name: str,
        kind: DeviceKind,
        capacity: int = 1,
        pos: Optional[Tuple[float, float]] = None,
    ) -> "ChipBuilder":
        """Add a device node."""
        self._add_node(name, NodeKind.DEVICE, pos)
        self._devices[name] = Device(name, kind, capacity)
        return self

    def add_flow_port(self, name: str, pos: Optional[Tuple[float, float]] = None) -> "ChipBuilder":
        """Add a fluid inlet (member of the paper's ``F_p``)."""
        self._add_node(name, NodeKind.FLOW_PORT, pos)
        self._flow_ports.append(name)
        return self

    def add_waste_port(self, name: str, pos: Optional[Tuple[float, float]] = None) -> "ChipBuilder":
        """Add a waste outlet (member of the paper's ``W_p``)."""
        self._add_node(name, NodeKind.WASTE_PORT, pos)
        self._waste_ports.append(name)
        return self

    # -- edges -------------------------------------------------------------

    def add_channel(self, a: str, b: str, length_mm: Optional[float] = None) -> "ChipBuilder":
        """Add a channel segment between two existing nodes."""
        for node in (a, b):
            if node not in self._kinds:
                raise ArchitectureError(f"unknown node {node!r}; add it before connecting")
        if a == b:
            raise ArchitectureError(f"self-loop channel on {a!r}")
        self._channels.append((a, b, length_mm or self.parameters.cell_pitch_mm))
        return self

    def connect(self, *nodes: str) -> "ChipBuilder":
        """Chain channel segments along a node sequence."""
        if len(nodes) < 2:
            raise ArchitectureError("connect needs at least two nodes")
        for a, b in zip(nodes, nodes[1:]):
            self.add_channel(a, b)
        return self

    # -- assembly --------------------------------------------------------------

    def build(self) -> Chip:
        """Validate and return the finished :class:`Chip`."""
        return Chip(
            self.name,
            self._kinds,
            self._channels,
            self._devices,
            self._flow_ports,
            self._waste_ports,
            self.parameters,
            positions=self._positions,
        )
