"""The control layer: microvalves and their actuation.

Continuous-flow chips are two-layer devices (Fig. 1(a)-(b)): the flow layer
carries fluids, and the control layer pushes elastomer membranes —
*microvalves* — down into flow channels to block them.  Routing a fluid
along a path means opening every valve on the path and closing the valves
on all side branches, so the plug cannot leak into adjacent channels.

This module derives the valve set of a chip, computes the open/closed valve
sets of any flow path, builds the tick-by-tick actuation table of a
schedule, and groups valves that always switch together so they can share a
control port (pressure-source multiplexing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.arch.chip import Chip
from repro.errors import ArchitectureError
from repro.schedule.schedule import Schedule

#: A flow-layer channel segment, as an unordered node pair.
Edge = Tuple[str, str]


def _norm(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Valve:
    """A microvalve gating one channel segment."""

    id: str
    edge: Edge

    def gates(self, a: str, b: str) -> bool:
        """Whether this valve sits on segment (a, b)."""
        return self.edge == _norm(a, b)


class ControlLayer:
    """Valve placement and path isolation for one chip.

    A valve is placed on every channel segment incident to a *branching*
    node (degree >= 3) or to a port — exactly the segments where a flow
    could leak sideways or escape the chip.  Straight-through segments
    between two degree-2 junctions need no valve: fluid cannot branch
    there.
    """

    def __init__(self, chip: Chip):
        self.chip = chip
        self.valves: Dict[Edge, Valve] = {}
        self._place_valves()

    # -- placement ----------------------------------------------------------

    def _needs_valve(self, a: str, b: str) -> bool:
        return (
            self.chip.degree(a) >= 3
            or self.chip.degree(b) >= 3
            or self.chip.is_port(a)
            or self.chip.is_port(b)
        )

    def _place_valves(self) -> None:
        index = 1
        for a, b in sorted(map(lambda e: _norm(*e), self.chip.edges())):
            if self._needs_valve(a, b):
                edge = _norm(a, b)
                self.valves[edge] = Valve(f"v{index}", edge)
                index += 1

    @property
    def valve_count(self) -> int:
        """Total microvalves on the chip."""
        return len(self.valves)

    def valve_on(self, a: str, b: str) -> Valve | None:
        """The valve gating segment (a, b), if one exists."""
        return self.valves.get(_norm(a, b))

    # -- path isolation ---------------------------------------------------------

    def path_valves(self, path: Sequence[str]) -> Tuple[FrozenSet[Valve], FrozenSet[Valve]]:
        """(open, closed) valve sets isolating ``path``.

        Open: valves on the path's own segments.  Closed: valves on
        segments that touch a path node but are not part of the path —
        these block leakage into side branches.

        Raises :class:`ArchitectureError` if a path segment that needs
        gating has no valve (cannot happen for layers built here).
        """
        self.chip.check_path(path)
        path_edges: Set[Edge] = {_norm(a, b) for a, b in zip(path, path[1:])}
        path_nodes = set(path)

        open_valves: Set[Valve] = set()
        for edge in path_edges:
            valve = self.valves.get(edge)
            if valve is not None:
                open_valves.add(valve)

        closed_valves: Set[Valve] = set()
        for node in path_nodes:
            for neighbor in self.chip.neighbors(node):
                edge = _norm(node, neighbor)
                if edge in path_edges:
                    continue
                valve = self.valves.get(edge)
                if valve is None:
                    raise ArchitectureError(
                        f"side branch {edge} of path through {node!r} has no valve"
                    )
                closed_valves.add(valve)
        return frozenset(open_valves), frozenset(closed_valves)

    # -- schedule actuation ---------------------------------------------------------

    def actuation_table(self, schedule: Schedule) -> "ActuationTable":
        """Tick-by-tick valve demands of every flow task in ``schedule``.

        Raises :class:`ArchitectureError` when two concurrent tasks demand
        the same valve in opposite states — which cannot happen for
        node-disjoint (conflict-free) schedules; the check catches invalid
        schedules early.
        """
        demands: Dict[int, Dict[Valve, bool]] = {}
        for task in schedule.flow_tasks():
            open_v, closed_v = self.path_valves(task.path)
            for tick in range(task.start, task.end):
                states = demands.setdefault(tick, {})
                for valve in open_v:
                    self._demand(states, valve, True, tick, task.id)
                for valve in closed_v:
                    self._demand(states, valve, False, tick, task.id)
        # An executing operation traps its fluid: both device ends closed.
        for task in schedule.operations():
            device = task.device
            for neighbor in self.chip.neighbors(device):
                valve = self.valves.get(_norm(device, neighbor))
                if valve is None:
                    continue
                for tick in range(task.start, task.end):
                    states = demands.setdefault(tick, {})
                    self._demand(states, valve, False, tick, task.id)
        return ActuationTable(self, demands)

    @staticmethod
    def _demand(
        states: Dict[Valve, bool], valve: Valve, is_open: bool, tick: int, task: str
    ) -> None:
        current = states.get(valve)
        if current is not None and current != is_open:
            raise ArchitectureError(
                f"valve {valve.id} demanded both open and closed at t={tick} "
                f"(task {task!r})"
            )
        states[valve] = is_open


class ActuationTable:
    """The resolved valve states of a schedule, tick by tick.

    Valves not demanded at a tick default to *closed* (pressure applied),
    the safe state of a normally-closed membrane valve.
    """

    def __init__(self, layer: ControlLayer, demands: Dict[int, Dict[Valve, bool]]):
        self.layer = layer
        self._demands = demands

    @property
    def horizon(self) -> int:
        """One past the last demanded tick."""
        return max(self._demands, default=-1) + 1

    def open_valves(self, tick: int) -> FrozenSet[Valve]:
        """Valves that must be open at ``tick``."""
        states = self._demands.get(tick, {})
        return frozenset(v for v, is_open in states.items() if is_open)

    def switch_count(self) -> int:
        """Total open/close transitions over the schedule.

        Membrane lifetime is bounded by actuation cycles, so synthesis
        tools report this as a chip-wear metric.
        """
        transitions = 0
        previous: FrozenSet[Valve] = frozenset()
        for tick in range(self.horizon):
            current = self.open_valves(tick)
            transitions += len(current ^ previous)
            previous = current
        transitions += len(previous)  # final close
        return transitions

    def signature(self, valve: Valve) -> Tuple[bool, ...]:
        """The open/closed pattern of ``valve`` over the horizon."""
        return tuple(
            valve in self.open_valves(tick) for tick in range(self.horizon)
        )

    def control_port_groups(self) -> List[FrozenSet[Valve]]:
        """Valves grouped by identical actuation patterns.

        Valves in one group can share a single control port (one external
        pressure source drives them through a common control channel), so
        ``len(control_port_groups())`` is the minimum control-port count
        for this schedule.
        """
        by_pattern: Dict[Tuple[bool, ...], Set[Valve]] = {}
        for valve in self.layer.valves.values():
            by_pattern.setdefault(self.signature(valve), set()).add(valve)
        return sorted(
            (frozenset(group) for group in by_pattern.values()),
            key=lambda g: sorted(v.id for v in g),
        )

    def control_port_count(self) -> int:
        """Minimum number of control ports for this schedule."""
        return len(self.control_port_groups())
