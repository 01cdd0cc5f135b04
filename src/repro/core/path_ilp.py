"""Exact cell-based wash-path ILP — Eqs. (12)-(15).

Selects a minimum-length port-to-port path covering a target set directly
over the chip flow network, with one binary per node:

* exactly one flow port and one waste port are selected (Eq. 12),
* a selected port has exactly one selected neighbor (Eq. 13),
* a selected interior node has exactly two selected neighbors (Eq. 14),
* every wash target is selected (Eq. 15).

Degree constraints admit disconnected cycles ("subtours"); these are
eliminated lazily: after each solve, any selected component that contains
no port is cut off and the model re-solved.  This mode is exponential in
the worst case and intended for small chips / ablation studies — the
default PDW pipeline uses the candidate-path pool instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.arch.chip import Chip, FlowPath
from repro.errors import WashError
from repro.ilp import LinExpr, Model


def exact_wash_path(
    chip: Chip,
    targets: Sequence[str],
    time_limit_s: float = 30.0,
    max_subtour_rounds: int = 20,
    forbidden: Sequence[str] = (),
) -> FlowPath:
    """Minimum-length wash path covering ``targets`` (Eqs. 12-15).

    ``forbidden`` nodes (e.g. devices loaded with precious fluid) are
    excluded from the path unless they are targets themselves.
    """
    target_set = set(targets)
    if not target_set:
        raise WashError("a wash path needs at least one target")
    banned = set(forbidden) - target_set
    missing = {t for t in target_set if not chip.has_node(t)}
    if missing:
        raise WashError(f"unknown wash targets: {sorted(missing)}")
    if target_set & set(chip.flow_ports + chip.waste_ports):
        raise WashError("ports cannot be wash targets")

    nodes = [n for n in chip.nodes if n not in banned]
    node_set = set(nodes)
    flow_ports = [p for p in chip.flow_ports if p in node_set]
    waste_ports = [p for p in chip.waste_ports if p in node_set]
    interior = [n for n in nodes if not chip.is_port(n)]

    model = Model("wash-path", big_m=8.0)
    u: Dict[str, object] = {n: model.add_binary_var(f"u[{n}]") for n in nodes}
    big = model.big_m

    def neighbor_coeffs(n: str):
        """Batch-row coefficients of the selected-neighbor degree of ``n``."""
        return [(u[m], 1.0) for m in chip.neighbors(n) if m in node_set]

    # Eq. 12 — one flow port, one waste port.
    model.add_linear_constraint([(u[p], 1.0) for p in flow_ports], "==", 1.0, "one_flow_port")
    model.add_linear_constraint([(u[p], 1.0) for p in waste_ports], "==", 1.0, "one_waste_port")

    # Eq. 13 — a selected port has exactly one selected neighbor.
    for p in flow_ports + waste_ports:
        deg = neighbor_coeffs(p)
        model.add_linear_constraint(deg + [(u[p], -1.0)], ">=", 0.0, f"port_deg_lo[{p}]")
        model.add_linear_constraint(deg + [(u[p], big)], "<=", 1.0 + big, f"port_deg_hi[{p}]")

    # Eq. 14 — a selected interior node has exactly two selected neighbors
    # (big-M relaxed to a no-op when the node is unselected).
    for n in interior:
        deg = neighbor_coeffs(n)
        model.add_linear_constraint(deg + [(u[n], -big)], ">=", 2.0 - big, f"deg_lo[{n}]")
        model.add_linear_constraint(deg + [(u[n], big)], "<=", 2.0 + big, f"deg_hi[{n}]")

    # Eq. 15 — all targets covered.
    for t in target_set:
        model.add_linear_constraint([(u[t], 1.0)], ">=", 1.0, f"target[{t}]")

    # Eq. 25 contribution — minimize selected cells (∝ path length).
    model.set_objective(LinExpr.sum(u.values()))

    for round_no in range(max_subtour_rounds):
        solution = model.solve(time_limit_s=time_limit_s)
        if not solution.status.has_solution:
            raise WashError(
                f"exact path ILP {solution.status.value} for targets {sorted(target_set)}"
            )
        chosen = [n for n in nodes if solution.rounded(u[n]) == 1]
        subtours = _port_free_components(chip, chosen)
        if not subtours:
            return _order_path(chip, set(chosen))
        for component in subtours:
            model.add_linear_constraint(
                [(u[n], 1.0) for n in component],
                "<=",
                float(len(component) - 1),
                f"subtour[{round_no}]",
            )
    raise WashError("exact path ILP did not converge (too many subtours)")


def _port_free_components(chip: Chip, chosen: List[str]) -> List[List[str]]:
    """Selected components containing no port (must be cut off)."""
    return [
        component
        for component in chip.components(chosen)
        if not any(chip.is_port(n) for n in component)
    ]


def _order_path(chip: Chip, chosen: Set[str]) -> FlowPath:
    """Order the selected node set into a port-to-port walk."""
    starts = [n for n in chosen if chip.is_port(n) and n in chip.flow_ports]
    if not starts:
        raise WashError("solution has no selected flow port")
    path = [starts[0]]
    visited = {starts[0]}
    while True:
        nxt = [
            m for m in chip.neighbors(path[-1]) if m in chosen and m not in visited
        ]
        if not nxt:
            break
        path.append(nxt[0])
        visited.add(nxt[0])
    if len(visited) != len(chosen):
        raise WashError("selected nodes do not form a single path")
    if path[-1] not in chip.waste_ports:
        raise WashError("ordered path does not end at a waste port")
    return tuple(path)
