"""Devices of the flow layer: mixers, heaters, detectors, filters, storage.

A device occupies one node of the chip flow network and executes biochemical
operations.  The :class:`DeviceKind` taxonomy mirrors the devices appearing
in the paper's example chip (Fig. 2) and benchmark suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet


class DeviceKind(enum.Enum):
    """Functional class of an on-chip device."""

    MIXER = "mixer"
    HEATER = "heater"
    DETECTOR = "detector"
    FILTER = "filter"
    STORAGE = "storage"
    SEPARATOR = "separator"
    INCUBATOR = "incubator"


#: Operation types each device kind can execute (operation type strings used
#: by :mod:`repro.assay.operations`).
DEVICE_CAPABILITIES = {
    DeviceKind.MIXER: frozenset({"mix", "dilute"}),
    DeviceKind.HEATER: frozenset({"heat", "thermocycle", "incubate"}),
    DeviceKind.DETECTOR: frozenset({"detect"}),
    DeviceKind.FILTER: frozenset({"filter"}),
    DeviceKind.STORAGE: frozenset({"store"}),
    DeviceKind.SEPARATOR: frozenset({"separate", "split"}),
    DeviceKind.INCUBATOR: frozenset({"incubate", "culture"}),
}


@dataclass(frozen=True)
class Device:
    """A named on-chip device.

    Attributes
    ----------
    name:
        Unique node id in the chip flow network (e.g. ``"mixer"``,
        ``"detector1"``).
    kind:
        Functional class, which determines the operation types the device
        can execute.
    capacity:
        How many operations the device can hold simultaneously.  All
        paper devices are single-occupancy.
    """

    name: str
    kind: DeviceKind
    capacity: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name cannot be empty")
        if self.capacity < 1:
            raise ValueError("device capacity must be at least 1")

    @property
    def capabilities(self) -> FrozenSet[str]:
        """Operation types this device can execute."""
        return DEVICE_CAPABILITIES[self.kind]

    def can_execute(self, op_type: str) -> bool:
        """Whether this device supports operation type ``op_type``."""
        return op_type in self.capabilities


def kind_for_operation(op_type: str) -> DeviceKind:
    """The device kind required by an operation type.

    Raises
    ------
    KeyError
        If no device kind supports ``op_type``.
    """
    for kind, ops in DEVICE_CAPABILITIES.items():
        if op_type in ops:
            return kind
    raise KeyError(f"no device kind can execute operation type {op_type!r}")
