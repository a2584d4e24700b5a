"""Deterministic SVG rendering of contour sets."""

from __future__ import annotations

import numpy as np

from .geometry import Contour, float_text

CANVAS_W = 800
CANVAS_H = 600
MARGIN = 20
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_svg(contours: list[Contour], shifts: list[tuple[float, float]]) -> str:
    """Render closed polylines on a fixed 800x600 canvas, equal aspect.

    ``shifts[k]`` translates contour k before plotting (the first entry is
    conventionally (0, 0)); output bytes depend only on the inputs.  Each
    canvas coordinate is written as its ``repr``: ``inf`` or ``nan`` where
    the canvas arithmetic of a huge contour overflows.
    """
    moved = [c.points + np.array([sx, sy]) for c, (sx, sy) in zip(contours, shifts)]
    allpts = np.vstack(moved)
    x0, y0 = allpts.min(axis=0)
    x1, y1 = allpts.max(axis=0)
    w = max(x1 - x0, 1e-300)
    h = max(y1 - y0, 1e-300)
    scale = min((CANVAS_W - 2 * MARGIN) / w, (CANVAS_H - 2 * MARGIN) / h)
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)

    def to_canvas(pts):
        px = (pts[:, 0] - cx) * scale + CANVAS_W / 2
        py = CANVAS_H / 2 - (pts[:, 1] - cy) * scale
        return np.column_stack([px, py])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
    ]
    for k, pts in enumerate(moved):
        t = float_text(to_canvas(pts))
        coords = " ".join([f"{a},{b}" for a, b in zip(t[0::2], t[1::2])])
        color = _COLORS[k % len(_COLORS)]
        lines.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
