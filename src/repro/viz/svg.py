"""SVG rendering of chip layouts and wash paths.

Produces standalone SVG documents (no dependencies) for papers, docs and
debugging: channels as lines, junctions as small dots, devices as rounded
rectangles labeled by name, flow ports as green triangles and waste ports
as red squares.  Wash paths (or any flow path) can be drawn as colored
overlays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.chip import Chip, FlowPath, NodeKind

#: Drawing scale: layout units to SVG pixels.
_SCALE = 48.0
_MARGIN = 40.0

#: Overlay colors cycled across highlighted paths.
_PATH_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _positions(chip: Chip) -> Dict[str, Tuple[float, float]]:
    positions = {}
    for node in chip.nodes:
        pos = chip.position(node)
        if pos is not None:
            positions[node] = pos
    return positions


def render_svg(
    chip: Chip,
    paths: Optional[Sequence[FlowPath]] = None,
    labels: bool = True,
) -> str:
    """Render ``chip`` (plus optional path overlays) as an SVG document.

    Nodes without layout coordinates are skipped; a chip with no
    coordinates at all yields a document with an explanatory comment.
    """
    positions = _positions(chip)
    if not positions:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            f"<!-- chip {chip.name!r} has no layout coordinates --></svg>"
        )

    min_x = min(p[0] for p in positions.values())
    min_y = min(p[1] for p in positions.values())

    def xy(node: str) -> Tuple[float, float]:
        px, py = positions[node]
        return (
            _MARGIN + (px - min_x) * _SCALE,
            _MARGIN + (py - min_y) * _SCALE,
        )

    width = _MARGIN * 2 + (max(p[0] for p in positions.values()) - min_x) * _SCALE
    height = _MARGIN * 2 + (max(p[1] for p in positions.values()) - min_y) * _SCALE

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<!-- chip {chip.name} -->",
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # channels
    for a, b in chip.edges():
        if a not in positions or b not in positions:
            continue
        (x1, y1), (x2, y2) = xy(a), xy(b)
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#999" stroke-width="4" stroke-linecap="round"/>'
        )

    # path overlays
    for i, path in enumerate(paths or ()):
        color = _PATH_COLORS[i % len(_PATH_COLORS)]
        points = " ".join(
            f"{xy(n)[0]:.1f},{xy(n)[1]:.1f}" for n in path if n in positions
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="7" stroke-opacity="0.55" stroke-linecap="round" '
            'stroke-linejoin="round"/>'
        )

    # nodes on top
    for node in positions:
        x, y = xy(node)
        kind = chip.kind_of(node)
        if kind is NodeKind.DEVICE:
            parts.append(
                f'<rect x="{x - 16:.1f}" y="{y - 12:.1f}" width="32" height="24" '
                'rx="6" fill="#ffd966" stroke="#7f6000" stroke-width="2"/>'
            )
            if labels:
                parts.append(
                    f'<text x="{x:.1f}" y="{y - 16:.1f}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{node}</text>'
                )
        elif kind is NodeKind.FLOW_PORT:
            parts.append(
                f'<polygon points="{x - 9:.1f},{y + 7:.1f} {x + 9:.1f},{y + 7:.1f} '
                f'{x:.1f},{y - 9:.1f}" fill="#6aa84f" stroke="#274e13" '
                'stroke-width="2"/>'
            )
            if labels:
                parts.append(
                    f'<text x="{x:.1f}" y="{y + 22:.1f}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{node}</text>'
                )
        elif kind is NodeKind.WASTE_PORT:
            parts.append(
                f'<rect x="{x - 8:.1f}" y="{y - 8:.1f}" width="16" height="16" '
                'fill="#e06666" stroke="#660000" stroke-width="2"/>'
            )
            if labels:
                parts.append(
                    f'<text x="{x:.1f}" y="{y + 22:.1f}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{node}</text>'
                )
        else:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#444"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
