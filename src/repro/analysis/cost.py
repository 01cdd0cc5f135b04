"""Chip-level cost reporting and plan comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.arch.chip import Chip
from repro.arch.control import ControlLayer
from repro.analysis.volumes import VolumeModel
from repro.core.plan import WashPlan
from repro.experiments.reporting import render_table
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class ChipCostReport:
    """Static and schedule-dependent cost figures of one chip."""

    devices: int
    flow_ports: int
    waste_ports: int
    channel_segments: int
    channel_length_mm: float
    valves: int
    control_ports: Optional[int] = None
    valve_switches: Optional[int] = None

    def as_dict(self) -> Dict[str, float]:
        """Flat mapping for reports/serialization."""
        out: Dict[str, float] = {
            "devices": float(self.devices),
            "flow_ports": float(self.flow_ports),
            "waste_ports": float(self.waste_ports),
            "channel_segments": float(self.channel_segments),
            "channel_length_mm": round(self.channel_length_mm, 2),
            "valves": float(self.valves),
        }
        if self.control_ports is not None:
            out["control_ports"] = float(self.control_ports)
        if self.valve_switches is not None:
            out["valve_switches"] = float(self.valve_switches)
        return out


def chip_cost(chip: Chip, schedule: Optional[Schedule] = None) -> ChipCostReport:
    """Cost report for ``chip``; pass a schedule for actuation figures."""
    layer = ControlLayer(chip)
    control_ports = valve_switches = None
    if schedule is not None:
        table = layer.actuation_table(schedule)
        control_ports = table.control_port_count()
        valve_switches = table.switch_count()
    edges = chip.edges()
    length = sum(chip.edge_length_mm(a, b) for a, b in edges)
    return ChipCostReport(
        devices=len(chip.devices),
        flow_ports=len(chip.flow_ports),
        waste_ports=len(chip.waste_ports),
        channel_segments=len(edges),
        channel_length_mm=length,
        valves=layer.valve_count,
        control_ports=control_ports,
        valve_switches=valve_switches,
    )


def compare_plans(
    plans: Sequence[WashPlan],
    volumes: VolumeModel = VolumeModel(),
) -> str:
    """Aligned text table comparing wash plans, including fluid volumes."""
    if not plans:
        return "(no plans)\n"
    headers = ["metric"] + [plan.method for plan in plans]
    keys = list(plans[0].metrics())
    rows = []
    for key in keys:
        rows.append([key] + [f"{plan.metrics()[key]:g}" for plan in plans])
    rows.append(
        ["wash_buffer_ul"]
        + [f"{volumes.wash_buffer_ul(plan):g}" for plan in plans]
    )
    rows.append(
        ["valve_switches"]
        + [
            f"{chip_cost(plan.chip, plan.schedule).valve_switches:g}"
            for plan in plans
        ]
    )
    return render_table(headers, rows)
