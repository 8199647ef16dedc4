"""Deterministic SVG rendering of diagrams.

Draws the closed polygonal walk with the usual knot-diagram convention:
at each crossing the under strand is interrupted by a short gap while the
over strand runs through.  Output is plain SVG text with fixed numeric
formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional
from html import escape

from .geometry import Diagram, InvalidParameterError
from .codes import CrossingAssignment

__all__ = ["render_svg"]

_SCALE = 120.0  # SVG units per unit length
_MARGIN = 0.35
_STROKE = 0.035
_GAP = 0.11
_FONT = 0.18


def _fmt(v: float) -> str:
    # fixed precision, and no negative zero, for byte-stable output
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _gap_intervals(d: Diagram, a: Optional[CrossingAssignment],
                   edge: int) -> list[tuple[float, float]]:
    """Parameter ranges of `edge` hidden because it passes under."""
    if a is None:
        return []
    under = []
    for k, c in enumerate(d.crossings):
        if c.edge_a == edge and not a.bits >> k & 1:
            under.append(c.t_a)
        elif c.edge_b == edge and a.bits >> k & 1:
            under.append(c.t_b)
    if not under:
        # an edge with no gap may have zero length (a walk that collapsed)
        return []
    half = _GAP / (2.0 * d.walk.edge_vec(edge).norm())
    return sorted((max(0.0, t - half), min(1.0, t + half)) for t in under)


def render_svg(d: Diagram, assignment: Optional[CrossingAssignment] = None,
               vertex_labels: Optional[Mapping[int, str]] = None) -> str:
    """Render a diagram as an SVG document string.

    With an assignment, each under strand is drawn with a gap at its
    crossings; without one, the bare projection is drawn.  `vertex_labels`
    adds text annotations next to the chosen vertices (for example height
    markers); each key must be a walk vertex, and the text is XML-escaped.
    Rendering is deterministic: equal inputs give equal bytes.
    """
    if assignment is not None and len(assignment) != d.n_crossings:
        raise InvalidParameterError("assignment does not cover the diagram")
    m = d.walk.n_edges
    for v in vertex_labels or ():
        if not 0 <= v < m:
            raise InvalidParameterError(
                f"label vertex {v} outside 0..{m - 1}")
    verts = d.walk.vertices
    xs = [p.x for p in verts]
    ys = [p.y for p in verts]
    lo_x, hi_x = min(xs) - _MARGIN, max(xs) + _MARGIN
    lo_y, hi_y = min(ys) - _MARGIN, max(ys) + _MARGIN
    width = (hi_x - lo_x) * _SCALE
    height = (hi_y - lo_y) * _SCALE
    if not (math.isfinite(width) and math.isfinite(height)):
        raise InvalidParameterError(
            f"drawing size {width} x {height} is not finite")

    def px(p) -> tuple[str, str]:
        # flip y so the mathematical orientation matches the screen
        return (_fmt((p.x - lo_x) * _SCALE), _fmt((hi_y - p.y) * _SCALE))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<g fill="none" stroke="black" '
        f'stroke-width="{_fmt(_STROKE * _SCALE)}" stroke-linecap="round">',
    ]
    for e in range(d.walk.n_edges):
        gaps = _gap_intervals(d, assignment, e)
        pieces = []
        t0 = 0.0
        for g0, g1 in gaps:
            if g0 > t0:
                pieces.append((t0, g0))
            t0 = max(t0, g1)
        if t0 < 1.0:
            pieces.append((t0, 1.0))
        for a_t, b_t in pieces:
            p0 = d.walk.point_on_edge(e, a_t)
            p1 = d.walk.point_on_edge(e, b_t)
            (x0, y0), (x1, y1) = px(p0), px(p1)
            lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}"/>')
    lines.append('</g>')

    lines.append('<g font-family="monospace" '
                 f'font-size="{_fmt(_FONT * _SCALE)}" fill="black">')
    center_x = (lo_x + hi_x) / 2.0
    center_y = (lo_y + hi_y) / 2.0
    for v in range(m):
        p = verts[v]
        # nudge labels away from the walk, outward from the bounding center
        dx, dy = p.x - center_x, p.y - center_y
        norm = math.hypot(dx, dy) or 1.0
        off = 0.16
        lx = p.x + off * dx / norm
        ly = p.y + off * dy / norm
        x, y = _fmt((lx - lo_x) * _SCALE), _fmt((hi_y - ly) * _SCALE)
        text = str(v)
        if vertex_labels and v in vertex_labels:
            text = f"{v}:{escape(vertex_labels[v], quote=False)}"
        lines.append(f'<text x="{x}" y="{y}">{text}</text>')
    lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
