"""JSON (de)serialization of chip architectures.

Lets users describe chips in plain data files and ship layouts between
tools::

    {
      "name": "ladder",
      "parameters": {"flow_velocity_mm_s": 10.0, "cell_pitch_mm": 1.5,
                      "dissolution_time_s": 1.0},
      "nodes": [
        {"id": "in1", "kind": "flow_port", "pos": [0, 0]},
        {"id": "mixerA", "kind": "device", "device_kind": "mixer"},
        ...
      ],
      "channels": [["in1", "a1"], ["a1", "mixerA", 2.5], ...]
    }

Channel entries are ``[a, b]`` or ``[a, b, length_mm]``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.arch.chip import Chip, NodeKind
from repro.arch.device import Device, DeviceKind
from repro.errors import ArchitectureError
from repro.units import PhysicalParameters


def chip_to_dict(chip: Chip) -> Dict[str, Any]:
    """Serialize a chip to plain data."""
    nodes: List[Dict[str, Any]] = []
    for node in sorted(chip.nodes):
        entry: Dict[str, Any] = {"id": node, "kind": chip.kind_of(node).value}
        pos = chip.position(node)
        if pos is not None:
            entry["pos"] = [pos[0], pos[1]]
        if chip.is_device(node):
            device = chip.devices[node]
            entry["device_kind"] = device.kind.value
            if device.capacity != 1:
                entry["capacity"] = device.capacity
        nodes.append(entry)
    channels = []
    for a, b in sorted(map(lambda e: tuple(sorted(e)), chip.edges())):
        length = chip.edge_length_mm(a, b)
        if length == chip.parameters.cell_pitch_mm:
            channels.append([a, b])
        else:
            channels.append([a, b, length])
    return {
        "name": chip.name,
        "parameters": {
            "flow_velocity_mm_s": chip.parameters.flow_velocity_mm_s,
            "cell_pitch_mm": chip.parameters.cell_pitch_mm,
            "dissolution_time_s": chip.parameters.dissolution_time_s,
        },
        "nodes": nodes,
        "channels": channels,
    }


def chip_from_dict(data: Dict[str, Any]) -> Chip:
    """Rebuild a chip from :func:`chip_to_dict` output."""
    try:
        params = PhysicalParameters(**data.get("parameters", {}))
        kinds: Dict[str, NodeKind] = {}
        positions: Dict[str, Tuple[float, float]] = {}
        channels: List[Tuple[str, str, float]] = []
        devices: Dict[str, Device] = {}
        flow_ports: List[str] = []
        waste_ports: List[str] = []
        for entry in data["nodes"]:
            node = entry["id"]
            kind = kinds[node] = NodeKind(entry["kind"])
            if "pos" in entry:
                positions[node] = tuple(entry["pos"])
            if kind is NodeKind.DEVICE:
                devices[node] = Device(
                    node,
                    DeviceKind(entry["device_kind"]),
                    entry.get("capacity", 1),
                )
            elif kind is NodeKind.FLOW_PORT:
                flow_ports.append(node)
            elif kind is NodeKind.WASTE_PORT:
                waste_ports.append(node)
        for channel in data["channels"]:
            a, b = channel[0], channel[1]
            length = channel[2] if len(channel) > 2 else params.cell_pitch_mm
            channels.append((a, b, length))
        return Chip(
            data.get("name", "chip"), kinds, channels, devices, flow_ports, waste_ports,
            params, positions=positions,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ArchitectureError(f"malformed chip document: {exc}") from exc


def chip_to_json(chip: Chip, indent: int = 2) -> str:
    """Serialize a chip to a JSON string."""
    return json.dumps(chip_to_dict(chip), indent=indent)


def chip_from_json(text: str) -> Chip:
    """Parse a chip from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchitectureError(f"malformed chip JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ArchitectureError("chip JSON must be an object")
    return chip_from_dict(data)
