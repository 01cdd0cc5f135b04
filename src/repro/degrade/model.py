"""Deterministic chip-degradation model.

Real continuous-flow chips lose parts in the field: channels clog, control
valves stick shut, devices stop actuating.  This module models such damage
*without mutating the chip*: a :class:`DegradationSpec` (parsed from the
``--degrade`` CLI spec / ``PDWConfig.degrade``) deterministically samples a
set of **dead nodes** from the chip, and the PDW pipeline threads that set
through clustering, candidate generation and the ILP as routing
avoid-sets.  The baseline schedule stays physically valid by construction:
sampled dead nodes are drawn only from nodes *no baseline task touches*
(explicit ``dead=`` nodes — the online fault-injection case — are exempt
from that rule, which is exactly what makes them repair scenarios).

Spec grammar (one scenario)::

    light | moderate | heavy                  # presets
    channels=N[:valves=N][:devices=N][:seed=N][:dead=n1+n2]

``pdw suite --degrade`` accepts a comma-separated list of scenarios (the
degradation *matrix*).  The rendered :meth:`DegradationSpec.token` is the
canonical form and doubles as the degradation component of every cache
key: two configs with the same token share degraded artifacts, and no
degraded artifact can ever collide with a healthy one.

This module deliberately imports only :mod:`repro.arch` and the error
hierarchy so that :mod:`repro.core.config` and :mod:`repro.core.stages`
can import it without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.arch.chip import Chip
from repro.arch.control import ControlLayer
from repro.errors import DegradationError

#: Named degradation presets (the matrix rungs the docs and CI use).
PRESETS: Dict[str, str] = {
    "light": "channels=1",
    "moderate": "channels=2:valves=1",
    "heavy": "channels=3:valves=2:devices=1",
}

#: Dead-node kind labels, in token order.
KINDS = ("channel", "valve", "device")


@dataclass(frozen=True)
class DegradationSpec:
    """One parsed degradation scenario (counts + seed + explicit nodes)."""

    channels: int = 0
    valves: int = 0
    devices: int = 0
    seed: int = 0
    #: Explicitly failed nodes (the online repair loop adds these).
    dead: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if min(self.channels, self.valves, self.devices) < 0:
            raise DegradationError("degradation counts must be non-negative")
        if not (self.channels or self.valves or self.devices or self.dead):
            raise DegradationError(
                "a degradation spec must fail at least one channel/valve/"
                "device or name explicit dead= nodes"
            )

    def token(self) -> str:
        """Canonical spec string (stable: doubles as cache-key material)."""
        parts: List[str] = []
        for key in ("channels", "valves", "devices"):
            count = getattr(self, key)
            if count:
                parts.append(f"{key}={count}")
        if self.channels or self.valves or self.devices:
            parts.append(f"seed={self.seed}")
        if self.dead:
            parts.append("dead=" + "+".join(sorted(self.dead)))
        return ":".join(parts)

    def with_dead(self, nodes: Iterable[str]) -> "DegradationSpec":
        """This spec with ``nodes`` added to the explicit dead set."""
        merged = tuple(sorted(set(self.dead) | set(nodes)))
        return replace(self, dead=merged)


def parse_spec(text: str) -> DegradationSpec:
    """Parse one scenario: a preset name or ``key=value`` pairs."""
    text = text.strip()
    if not text:
        raise DegradationError("empty degradation spec")
    text = PRESETS.get(text, text)
    fields: Dict[str, object] = {}
    for pair in text.split(":"):
        if "=" not in pair:
            raise DegradationError(
                f"malformed degradation field {pair!r} (expected key=value)"
            )
        key, _, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "dead":
            nodes = tuple(sorted({n for n in value.split("+") if n}))
            if not nodes:
                raise DegradationError("dead= needs at least one node")
            fields["dead"] = nodes
        elif key in ("channels", "valves", "devices", "seed"):
            try:
                fields[key] = int(value)
            except ValueError:
                raise DegradationError(
                    f"degradation field {key}={value!r} is not an integer"
                ) from None
        else:
            raise DegradationError(f"unknown degradation field {key!r}")
    return DegradationSpec(**fields)  # type: ignore[arg-type]


def parse_matrix(text: str) -> List[DegradationSpec]:
    """Parse a comma-separated scenario list (the ``--degrade`` matrix)."""
    specs = [parse_spec(part) for part in text.split(",") if part.strip()]
    if not specs:
        raise DegradationError("empty degradation matrix")
    return specs


@dataclass(frozen=True)
class Degradation:
    """A spec resolved against one chip: the concrete dead-node set."""

    spec: DegradationSpec
    channels: Tuple[str, ...] = ()
    valves: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ()
    explicit: Tuple[str, ...] = ()

    @property
    def dead(self) -> FrozenSet[str]:
        """Every failed node, whatever its kind."""
        return frozenset(self.channels) | frozenset(self.valves) | \
            frozenset(self.devices) | frozenset(self.explicit)

    def by_kind(self) -> Dict[str, Tuple[str, ...]]:
        return {
            "channel": self.channels,
            "valve": self.valves,
            "device": self.devices,
            "explicit": self.explicit,
        }


def _used_nodes(schedule) -> FrozenSet[str]:
    """Every chip node a baseline task touches (paths + bound devices)."""
    used = set()
    for task in schedule.tasks():
        used.update(task.path or ())
        if task.device is not None:
            used.add(task.device)
    return frozenset(used)


def _sample(pool: List[str], count: int, seed: int, chip: str, kind: str) -> List[str]:
    """Deterministically sample up to ``count`` nodes from ``pool``.

    Seeded by (seed, chip name, kind) so every worker count, process and
    platform draws the same nodes; requesting more than available takes
    the whole pool rather than failing.
    """
    pool = sorted(pool)
    if count >= len(pool):
        return pool
    rng = random.Random(f"{seed}:{chip}:{kind}")
    return sorted(rng.sample(pool, count))


def derive(chip: Chip, schedule, spec: DegradationSpec) -> Degradation:
    """Resolve ``spec`` against ``chip`` into a concrete dead-node set.

    Sampled nodes come only from nodes unused by the baseline
    ``schedule`` — the assay itself survives the damage; only washing has
    to route around it.  A stuck valve is conservatively modeled as its
    unused channel-side junction node going dead (the membrane blocks
    every flow through that junction).  Explicit ``dead=`` nodes are
    validated against the chip but may be *used* nodes — those are the
    online repair scenarios.
    """
    used = _used_nodes(schedule)
    ports = frozenset(chip.flow_ports) | frozenset(chip.waste_ports)

    for node in spec.dead:
        if not chip.has_node(node):
            raise DegradationError(f"dead= names unknown chip node {node!r}")
        if node in ports:
            raise DegradationError(f"cannot fail port {node!r} (chip boundary)")

    channel_pool = [
        n for n in chip.channel_nodes if n not in used and n not in spec.dead
    ]
    channels = _sample(channel_pool, spec.channels, spec.seed, chip.name, "channel")

    taken = set(channels) | set(spec.dead)
    valve_pool = {
        n
        for valve in ControlLayer(chip).valves.values()
        for n in valve.edge
        if n not in ports and not chip.is_device(n)
        and n not in used and n not in taken
    }
    valves = _sample(sorted(valve_pool), spec.valves, spec.seed, chip.name, "valve")

    taken |= set(valves)
    device_pool = [
        d for d in chip.devices if d not in used and d not in taken
    ]
    devices = _sample(device_pool, spec.devices, spec.seed, chip.name, "device")

    return Degradation(
        spec=spec,
        channels=tuple(channels),
        valves=tuple(valves),
        devices=tuple(devices),
        explicit=spec.dead,
    )


@dataclass(frozen=True)
class DegradationInfo:
    """Plan-facing degradation summary (embedded in plan JSON).

    ``uncovered_targets`` are required wash targets no degraded
    port-to-port path can reach — the plan's coverage gaps, reported
    (never silently dropped) and exempted from contamination
    verification at exactly those nodes.
    """

    spec: str
    dead_channels: Tuple[str, ...] = ()
    dead_valves: Tuple[str, ...] = ()
    dead_devices: Tuple[str, ...] = ()
    dead_explicit: Tuple[str, ...] = ()
    uncovered_targets: Tuple[str, ...] = ()
    required_targets: int = 0

    @property
    def dead(self) -> FrozenSet[str]:
        return frozenset(self.dead_channels) | frozenset(self.dead_valves) | \
            frozenset(self.dead_devices) | frozenset(self.dead_explicit)

    @property
    def coverage(self) -> float:
        """Fraction of required wash targets the plan still washes."""
        if not self.required_targets:
            return 1.0
        covered = self.required_targets - len(self.uncovered_targets)
        return covered / self.required_targets

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "dead_channels": list(self.dead_channels),
            "dead_valves": list(self.dead_valves),
            "dead_devices": list(self.dead_devices),
            "dead_explicit": list(self.dead_explicit),
            "uncovered_targets": list(self.uncovered_targets),
            "required_targets": self.required_targets,
            "coverage": round(self.coverage, 4),
        }


def info_from(degradation: Degradation, uncovered: Iterable[str], required: int) -> DegradationInfo:
    """Build the plan-facing summary from a resolved degradation."""
    return DegradationInfo(
        spec=degradation.spec.token(),
        dead_channels=degradation.channels,
        dead_valves=degradation.valves,
        dead_devices=degradation.devices,
        dead_explicit=degradation.explicit,
        uncovered_targets=tuple(sorted(uncovered)),
        required_targets=required,
    )
