"""ASCII rendering of chip layouts.

Nodes are drawn at their layout coordinates (when present): flow ports as
``I``, waste ports as ``O``, devices by the first letter of their kind, and
channel junctions as ``+``; channel segments appear as ``-``/``|`` runs.
Optionally a flow path is highlighted with ``*``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.arch.chip import Chip, NodeKind

#: characters per grid cell on the canvas (room for segment glyphs).
_SCALE = 2


def _glyph(chip: Chip, node: str) -> str:
    kind = chip.kind_of(node)
    if kind is NodeKind.FLOW_PORT:
        return "I"
    if kind is NodeKind.WASTE_PORT:
        return "O"
    if kind is NodeKind.DEVICE:
        return chip.devices[node].kind.value[0].upper()
    return "+"


def render_chip(chip: Chip, highlight: Optional[Sequence[str]] = None) -> str:
    """Render ``chip`` as ASCII art; returns a placeholder without positions."""
    positions: Dict[str, Tuple[float, float]] = {}
    for node in chip.nodes:
        pos = chip.position(node)
        if pos is not None:
            positions[node] = pos
    if not positions:
        return f"(chip {chip.name!r}: no layout coordinates to draw)\n"

    xs = [int(round(p[0])) for p in positions.values()]
    ys = [int(round(p[1])) for p in positions.values()]
    min_x, min_y = min(xs), min(ys)
    width = (max(xs) - min_x) * _SCALE + 1
    height = (max(ys) - min_y) * _SCALE + 1
    canvas = [[" "] * width for _ in range(height)]
    marked = set(highlight or ())

    def cell(node: str) -> Tuple[int, int]:
        px, py = positions[node]
        return (
            (int(round(px)) - min_x) * _SCALE,
            (int(round(py)) - min_y) * _SCALE,
        )

    # channel segments first, then node glyphs on top
    for a, b in chip.edges():
        if a not in positions or b not in positions:
            continue
        ax, ay = cell(a)
        bx, by = cell(b)
        mx, my = (ax + bx) // 2, (ay + by) // 2
        glyph = "-" if ay == by else ("|" if ax == bx else ".")
        canvas[my][mx] = glyph
    for node in positions:
        x, y = cell(node)
        canvas[y][x] = "*" if node in marked else _glyph(chip, node)

    legend = (
        "I=flow port  O=waste port  +=junction  "
        "M/H/D/F/S=device kinds" + ("  *=highlighted" if marked else "")
    )
    body = "\n".join("".join(row).rstrip() for row in canvas)
    return f"chip {chip.name!r}\n{body}\n{legend}\n"
