"""Device placement and channel routing on the virtual grid.

The generated layouts follow a regular template that keeps every synthesis
run routable and deterministic:

* devices sit on interior grid cells, four cells apart, row-major;
* each device column gets two full-height vertical channel corridors, one
  cell to the left and one to the right of the device, and the device
  attaches to them through its two horizontal neighbors — so, like the
  paper's devices, every device has exactly two channel ends (fill + air
  release) and is never crossed by through-traffic;
* one horizontal corridor runs two rows below each device row, turning the
  corridor set into a mesh with junction cells where corridors cross;
* the grid boundary is a channel *ring* carrying all flow and waste ports.

All occupied cells become nodes of the chip flow network; adjacent occupied
cells are connected by channel segments of one cell pitch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch.chip import Chip, NodeKind
from repro.arch.device import Device
from repro.arch.grid import Cell, Grid
from repro.errors import SynthesisError
from repro.units import PhysicalParameters, DEFAULT_PARAMETERS

#: Cell spacing of the placement template (see module docstring).
_PITCH = 4


@dataclass(frozen=True)
class ArchSpec:
    """Sizing knobs for layout generation."""

    flow_ports: int = 4
    waste_ports: int = 4

    def __post_init__(self) -> None:
        if self.flow_ports < 1 or self.waste_ports < 1:
            raise SynthesisError("layouts need at least one flow and one waste port")


def _device_positions(n_devices: int) -> Tuple[Grid, List[Cell]]:
    """Grid dimensions and interior device cells for ``n_devices``."""
    cols = max(1, math.ceil(math.sqrt(n_devices)))
    rows = math.ceil(n_devices / cols)
    width = max(_PITCH * cols + 1, 7)
    height = max(_PITCH * rows + 2, 7)
    grid = Grid(width, height)
    cells = []
    for i in range(n_devices):
        r, c = divmod(i, cols)
        cells.append(grid.require((2 + _PITCH * c, 2 + _PITCH * r)))
    return grid, cells


def _spread_indices(total: int, count: int, offset: int) -> List[int]:
    """``count`` indices spread evenly around a ring of ``total`` positions."""
    if count > total:
        raise SynthesisError(f"cannot place {count} ports on a ring of {total} cells")
    step = total / count
    return sorted({(offset + round(i * step)) % total for i in range(count)})


def generate_layout(
    devices: Sequence[Device],
    spec: ArchSpec = ArchSpec(),
    name: str = "synth",
    parameters: PhysicalParameters = DEFAULT_PARAMETERS,
) -> Chip:
    """Place ``devices`` and route the channel network; returns the chip."""
    if not devices:
        raise SynthesisError("cannot generate a layout without devices")

    grid, device_cells = _device_positions(len(devices))
    occupied: Dict[Cell, Tuple[str, NodeKind]] = {}

    for device, cell in zip(devices, device_cells):
        occupied[cell] = (device.name, NodeKind.DEVICE)

    # Boundary ring with ports.  Flow ports start near the top-left corner,
    # waste ports are offset so inlets and outlets interleave.
    ring = grid.boundary_cells()
    flow_idx = _spread_indices(len(ring), spec.flow_ports, offset=1)
    waste_idx = _spread_indices(
        len(ring), spec.waste_ports, offset=1 + round(len(ring) / (2 * spec.waste_ports))
    )
    waste_idx = [i for i in waste_idx if i not in set(flow_idx)]
    shortfall = spec.waste_ports - len(waste_idx)
    if shortfall:
        free = [i for i in range(len(ring)) if i not in set(flow_idx) | set(waste_idx)]
        waste_idx.extend(free[:shortfall])
    flow_names, waste_names = [], []
    for n, idx in enumerate(flow_idx, start=1):
        occupied[ring[idx]] = (f"in{n}", NodeKind.FLOW_PORT)
        flow_names.append(f"in{n}")
    for n, idx in enumerate(sorted(waste_idx), start=1):
        occupied[ring[idx]] = (f"out{n}", NodeKind.WASTE_PORT)
        waste_names.append(f"out{n}")
    for cell in ring:
        occupied.setdefault(cell, (f"c{cell[0]}_{cell[1]}", NodeKind.CHANNEL))

    def etch(cell: Cell) -> None:
        occupied.setdefault(cell, (f"c{cell[0]}_{cell[1]}", NodeKind.CHANNEL))

    # Vertical corridors flanking every device column.
    device_cols = sorted({cell[0] for cell in device_cells})
    device_rows = sorted({cell[1] for cell in device_cells})
    for x in device_cols:
        for corridor_x in (x - 1, x + 1):
            for y in range(1, grid.height - 1):
                etch((corridor_x, y))

    # Horizontal corridors two rows below each device row (never adjacent to
    # a device cell, so devices keep exactly two channel ends).
    for y_dev in device_rows:
        y = min(y_dev + 2, grid.height - 2)
        for x in range(1, grid.width - 1):
            etch((x, y))

    # Assemble the network: adjacent occupied cells are channel segments.
    chip = Chip(
        name=name,
        nodes=dict(occupied.values()),
        channels=[
            (node, occupied[neighbor][0], parameters.cell_pitch_mm)
            for cell, (node, _) in occupied.items()
            for neighbor in grid.neighbors(cell)
            if neighbor in occupied
        ],
        devices={d.name: d for d in devices},
        flow_ports=flow_names,
        waste_ports=waste_names,
        parameters=parameters,
        positions={node: (float(x), float(y)) for (x, y), (node, _) in occupied.items()},
    )
    _check_device_ends(chip)
    return chip


def _check_device_ends(chip: Chip) -> None:
    """Every generated device must have exactly two channel ends."""
    for name in chip.devices:
        degree = chip.degree(name)
        if degree != 2:
            raise SynthesisError(
                f"layout bug: device {name!r} has {degree} channel ends (expected 2)"
            )
