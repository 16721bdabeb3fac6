"""Static diagrams: SVG for the polygon picture, DOT for quivers.

Output is byte-deterministic: element order follows the stored (sorted)
order of diagonals, arrows, and relations, and every coordinate is printed
with the same two-decimal format.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .algebra import QuiverWithRelations, quiver_of
from .geometry import Dissection

_SIZE = 420.0
_CENTER = _SIZE / 2
_RADIUS = 170.0
_LABEL_RADIUS = _RADIUS + 18.0

Renderable = Union[Dissection, QuiverWithRelations]


class RenderError(ValueError):
    """Unknown format or object kind."""

    exit_code = 2


def _point(i: int, count: int, radius: float) -> tuple[float, float]:
    # Vertex 0 at the top, indices increasing anti-clockwise; SVG's y axis
    # points down, hence the minus sign.
    theta = math.radians(90.0 - 360.0 * i / count)
    return _CENTER + radius * math.cos(theta), _CENTER - radius * math.sin(theta)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg_document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def svg_dissection(t: Dissection) -> str:
    count = t.params.N
    corners = [_point(i, count, _RADIUS) for i in range(count)]
    outline = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    body = [
        f'<polygon points="{outline}" fill="none" stroke="black" stroke-width="1.5"/>'
    ]
    for d in t.diagonals:
        (x1, y1), (x2, y2) = corners[d.a], corners[d.b]
        body.append(
            f'<line class="chord" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="black" stroke-width="1"/>'
        )
    for i in range(count):
        x, y = _point(i, count, _LABEL_RADIUS)
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="14" '
            f'text-anchor="middle" dominant-baseline="middle">{i}</text>'
        )
    return _svg_document(body)


def svg_quiver(q: QuiverWithRelations, names: Sequence[object]) -> str:
    """The quiver drawn on a circle, vertex v named by ``names[v]``."""
    count = max(q.vertex_count, 1)
    spots = [_point(i, count, _RADIUS) for i in range(count)]
    body = [
        '<defs><marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>'
    ]
    mids: list[tuple[float, float]] = []
    for a in q.arrows:
        (x1, y1), (x2, y2) = spots[a.source], spots[a.target]
        # Pull both ends in a little so arrowheads clear the labels.
        dx, dy = x2 - x1, y2 - y1
        span = math.hypot(dx, dy) or 1.0
        inset = 16.0 / span
        sx, sy = x1 + dx * inset, y1 + dy * inset
        ex, ey = x2 - dx * inset, y2 - dy * inset
        mids.append(((x1 + x2) / 2, (y1 + y2) / 2))
        body.append(
            f'<line class="arrow" x1="{_fmt(sx)}" y1="{_fmt(sy)}" '
            f'x2="{_fmt(ex)}" y2="{_fmt(ey)}" stroke="black" '
            f'stroke-width="1" marker-end="url(#tip)"/>'
        )
    for i, j in sorted(q.relations):
        (x1, y1), (x2, y2) = mids[i], mids[j]
        body.append(
            f'<line class="relation" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="black" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for v in range(q.vertex_count):
        x, y = spots[v]
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="13" '
            f'text-anchor="middle" dominant-baseline="middle">'
            f"{names[v]}</text>"
        )
    return _svg_document(body)


def dot_quiver(q: QuiverWithRelations, names: Sequence[object]) -> str:
    """The quiver as a DOT digraph, vertex v labelled ``names[v]``."""
    lines = ["digraph quiver {"]
    for v in range(q.vertex_count):
        lines.append(f'  {v} [label="{names[v]}"];')
    for a in q.arrows:
        lines.append(f"  {a.source} -> {a.target};")
    # A relation (i, j) says arrow i followed by arrow j composes to zero;
    # mark it with a dotted edge across the length-two path.
    for i, j in sorted(q.relations):
        u, w = q.arrows[i].source, q.arrows[j].target
        lines.append(f'  {u} -> {w} [style=dotted, constraint=false, label="0"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(obj: Renderable, fmt: str) -> str:
    """A dissection as its polygon (svg) or its quiver with each vertex
    named by its diagonal (dot); a quiver with each vertex named by its
    index."""
    if fmt not in ("svg", "dot"):
        raise RenderError(f"unknown format {fmt!r}; expected svg or dot")
    if isinstance(obj, Dissection):
        return svg_dissection(obj) if fmt == "svg" else dot_quiver(quiver_of(obj), obj.diagonals)
    if isinstance(obj, QuiverWithRelations):
        names = range(obj.vertex_count)
        return svg_quiver(obj, names) if fmt == "svg" else dot_quiver(obj, names)
    raise RenderError(f"cannot render objects of type {type(obj).__name__}")
