"""Deterministic SVG diagrams of a construction run.

Five diagram kinds are supported:

* ``PieceMap`` -- the rectangles with one colored region per affine
  branch, domain strips above, image strips below.
* ``Digraphs`` -- four panels, one per edge map, with the functional
  digraph in black and the remaining arcs of the matrix digraph (or its
  transpose) in light gray.
* ``Orbits`` -- periodic points on each edge with arrows along their
  orbits.
* ``ExpandedRectangles`` -- rectangles with their attached infinite
  strips truncated at three unit periods and faded, plus the switch
  paths drawn as rounded elbows.
* ``Complex2D`` -- the identification schema: one column per rectangle
  edge and per infinite strip, with each identified segment pair drawn
  in a matching color.

Colors are a pure function of strip identity, so output bytes are
stable across runs for a fixed input.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

DIAGRAM_KINDS = ("PieceMap", "Digraphs", "Orbits", "ExpandedRectangles", "Complex2D")

_GOLDEN_ANGLE = 137.50776405003785


def strip_color(source: int, copy: int, rect: int, light: bool = False) -> str:
    """Deterministic color for one strip identity (golden-angle hues)."""
    idx = (rect - 1) * 89 + (source - 1) * 13 + (copy - 1)
    hue = (idx * _GOLDEN_ANGLE) % 360.0
    sat, lum = (45, 82) if light else (62, 58)
    return f"hsl({hue:.2f},{sat}%,{lum}%)"


def _fmt(x: float) -> str:
    return ("%.3f" % x).rstrip("0").rstrip(".")


class _Svg:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill="none", stroke="black", opacity=None, sw=1.0):
        extra = f' fill-opacity="{_fmt(opacity)}"' if opacity is not None else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}"'
            f' fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(sw)}"{extra}/>'
        )

    def line(self, x1, y1, x2, y2, stroke="black", sw=1.0, marker=False, dash=None):
        extra = ' marker-end="url(#arrow)"' if marker else ""
        if dash:
            extra += f' stroke-dasharray="{dash}"'
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fmt(sw)}"{extra}/>'
        )

    def path(self, d, stroke="black", sw=1.0, fill="none", marker=False):
        extra = ' marker-end="url(#arrow)"' if marker else ""
        self.parts.append(
            f'<path d="{d}" fill="{fill}" stroke="{stroke}"'
            f' stroke-width="{_fmt(sw)}" stroke-linejoin="round"'
            f' stroke-linecap="round"{extra}/>'
        )

    def circle(self, cx, cy, r, fill="black", stroke="none"):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}"'
            f' fill="{fill}" stroke="{stroke}"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", fill="black"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' font-family="Helvetica,Arial,sans-serif" text-anchor="{anchor}"'
            f' fill="{fill}">{s}</text>'
        )

    def document(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}"'
            f' height="{_fmt(self.height)}"'
            f' viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            "<defs>\n"
            '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5"'
            ' markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
            '<path d="M 0 1 L 9 5 L 0 9 z" fill="context-stroke"/></marker>\n'
            '<linearGradient id="fadeR" x1="0" y1="0" x2="1" y2="0">'
            '<stop offset="0" stop-color="white" stop-opacity="0"/>'
            '<stop offset="1" stop-color="white" stop-opacity="1"/>'
            "</linearGradient>\n"
            '<linearGradient id="fadeL" x1="1" y1="0" x2="0" y2="0">'
            '<stop offset="0" stop-color="white" stop-opacity="0"/>'
            '<stop offset="1" stop-color="white" stop-opacity="1"/>'
            "</linearGradient>\n"
            '<linearGradient id="fadeD" x1="0" y1="0" x2="0" y2="1">'
            '<stop offset="0" stop-color="white" stop-opacity="0"/>'
            '<stop offset="1" stop-color="white" stop-opacity="1"/>'
            "</linearGradient>\n"
            '<linearGradient id="fadeU" x1="0" y1="1" x2="0" y2="0">'
            '<stop offset="0" stop-color="white" stop-opacity="0"/>'
            '<stop offset="1" stop-color="white" stop-opacity="1"/>'
            "</linearGradient>\n"
            "</defs>\n"
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _require(result, fields: tuple[str, ...], kind: str):
    for name in fields:
        if getattr(result, name, None) is None:
            raise InvalidInputError(
                f"diagram kind {kind!r} needs field {name!r}, which is missing"
            )


def render(kind: str, result) -> str:
    """Render the diagram ``kind`` of a pipeline result to an SVG string."""
    if kind not in DIAGRAM_KINDS:
        raise InvalidInputError(
            f"unknown diagram kind {kind!r}; expected one of {DIAGRAM_KINDS}"
        )
    return _RENDERERS[kind](result)


# ---------------------------------------------------------------------------
# PieceMap

_SCALE = 120.0
_GAP = 30.0
_MARGIN = 24.0


def _rect_geometry(D):
    """Per-rectangle pixel geometry: (x offset, width, height)."""
    geo = {}
    x = _MARGIN
    for k in range(1, D.n + 1):
        w = D.rect_width(k) * _SCALE
        h = D.rect_height(k) * _SCALE
        geo[k] = (x, w, h)
        x += w + _GAP
    return geo, x - _GAP + _MARGIN


def _intervals(orders, offsets) -> dict:
    """label -> (start, end) float offsets of every strip, read off the
    stored ``offsets``."""
    out = {}
    for k, order in orders.items():
        ends = offsets[k]
        for t, label in enumerate(order):
            out[label] = (ends[t], ends[t + 1])
    return out


def _render_piece_map(result) -> str:
    _require(result, ("decomposition", "system"), "PieceMap")
    D = result.decomposition
    by_source = result.system.piece_map.source_index
    columns = _intervals(D.vertical_order, D.vertical_offsets)
    rows = _intervals(D.horizontal_order, D.horizontal_offsets)
    geo, total_w = _rect_geometry(D)
    row_h = max(D.rect_height(k) for k in range(1, D.n + 1)) * _SCALE
    y_top, y_bot = _MARGIN + 14, _MARGIN + 14 + row_h + 48
    svg = _Svg(total_w, y_bot + row_h + _MARGIN)
    for k in range(1, D.n + 1):
        x0, w, h = geo[k]
        svg.text(x0 + w / 2, y_top - 6, f"Q{k} (domain)", size=10)
        svg.text(x0 + w / 2, y_bot - 6, f"Q{k} (image)", size=10)
        for label in D.vertical_order[k]:
            a, b = columns[label]
            branch = by_source[label]
            tgt = branch.target_label
            color = strip_color(tgt.source, tgt.copy, tgt.rect)
            svg.rect(x0 + a * _SCALE, y_top, (b - a) * _SCALE, h, fill=color)
        for label in D.horizontal_order[k]:
            a, b = rows[label]
            color = strip_color(label.source, label.copy, label.rect)
            svg.rect(x0, y_bot + a * _SCALE, w, (b - a) * _SCALE, fill=color)
        svg.rect(x0, y_top, w, h, sw=1.4)
        svg.rect(x0, y_bot, w, h, sw=1.4)
    return svg.document()


# ---------------------------------------------------------------------------
# Digraphs


def _vertex_ring(n, cx, cy, r):
    pos = {}
    for i in range(1, n + 1):
        ang = -math.pi / 2 + 2 * math.pi * (i - 1) / n
        pos[i] = (cx + r * math.cos(ang), cy + r * math.sin(ang))
    return pos


def _arc(svg, p, q, stroke, sw, bend=0.25):
    (x1, y1), (x2, y2) = p, q
    if p == q:
        svg.path(
            f"M {_fmt(x1 - 6)} {_fmt(y1 - 6)} C {_fmt(x1 - 24)} {_fmt(y1 - 30)},"
            f" {_fmt(x1 + 24)} {_fmt(y1 - 30)}, {_fmt(x1 + 6)} {_fmt(y1 - 6)}",
            stroke=stroke,
            sw=sw,
            marker=True,
        )
        return
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    dx, dy = x2 - x1, y2 - y1
    norm = math.hypot(dx, dy) or 1.0
    ox, oy = -dy / norm, dx / norm
    # shorten toward the target so the arrowhead clears the vertex dot
    sx, sy = x2 - dx / norm * 10, y2 - dy / norm * 10
    svg.path(
        f"M {_fmt(x1)} {_fmt(y1)} Q {_fmt(mx + ox * bend * norm)}"
        f" {_fmt(my + oy * bend * norm)} {_fmt(sx)} {_fmt(sy)}",
        stroke=stroke,
        sw=sw,
        marker=True,
    )


def _render_digraphs(result) -> str:
    _require(result, ("system",), "Digraphs")
    system = result.system
    D = system.decomposition
    n = D.n
    panel = 190.0
    svg = _Svg(4 * panel, panel + 30)
    graph = D.facts.graph
    for idx, kind in enumerate(("L", "R", "T", "B")):
        E = system.maps[kind]
        cx, cy = idx * panel + panel / 2, 24 + (panel - 30) / 2
        pos = _vertex_ring(n, cx, cy, (panel - 70) / 2)
        name = {"L": "f_L", "R": "f_R", "T": "f_T^-1", "B": "f_B^-1"}[kind]
        svg.text(cx, 16, name, size=12)
        # the arcs of M, or of its transpose, leaving each vertex in turn
        arcs = graph.successors if kind in ("L", "R") else graph.predecessors
        black = {(k, E.digraph[k]) for k in E.digraph}
        for j in range(1, n + 1):
            for i in arcs[j - 1]:
                if (j, i + 1) not in black:
                    _arc(svg, pos[j], pos[i + 1], "#bbbbbb", 1.0)
        for j, i in sorted(black):
            _arc(svg, pos[j], pos[i], "black", 1.6)
        for i in range(1, n + 1):
            x, y = pos[i]
            svg.circle(x, y, 3.2)
            svg.text(x, y + 14, str(i), size=10)
    return svg.document()


# ---------------------------------------------------------------------------
# Orbits


def _render_orbits(result) -> str:
    _require(result, ("system", "points", "decomposition"), "Orbits")
    D = result.decomposition
    system = result.system
    n = D.n
    box_w, box_gap, row_h = 90.0, 26.0, 96.0
    width = _MARGIN * 2 + n * box_w + (n - 1) * box_gap
    svg = _Svg(width, _MARGIN + 4 * row_h)
    for r, kind in enumerate(("L", "R", "T", "B")):
        E = system.maps[kind]
        y0 = _MARGIN + r * row_h
        svg.text(_MARGIN, y0 + 12, f"{kind} edge", size=11, anchor="start")
        centers = {}
        for k in range(1, n + 1):
            x0 = _MARGIN + (k - 1) * (box_w + box_gap)
            svg.rect(x0, y0 + 20, box_w, 36)
            svg.text(x0 + box_w / 2, y0 + 68, f"Q{k}", size=10)
            centers[k] = (x0, y0 + 20)
        for k in sorted(E.digraph):
            j = E.digraph[k]
            x1 = centers[k][0] + box_w
            x2 = centers[j][0]
            y = y0 + 38
            if j == k:
                _arc(svg, (x1 - box_w / 2, y - 18), (x1 - box_w / 2, y - 18),
                     "black", 1.2)
            else:
                mid = (x1 + x2) / 2
                svg.path(
                    f"M {_fmt(x1)} {_fmt(y)} Q {_fmt(mid)} {_fmt(y - 26)}"
                    f" {_fmt(x2)} {_fmt(y)}",
                    sw=1.2,
                    marker=True,
                )
        for pt in result.points.get(kind, []):
            x0, ybox = centers[pt.rect]
            frac = pt.offset / E.edge_length(pt.rect, D)
            cx = x0 + frac * box_w
            color = "#c02020" if pt.is_corner else "#2040c0"
            svg.circle(cx, ybox + 18, 3.0, fill=color)
            svg.text(cx, ybox + 14, f"p{pt.period}", size=8)
    return svg.document()


# ---------------------------------------------------------------------------
# ExpandedRectangles

_STRIP_PERIODS = 3  # truncate infinite strips after this many unit periods


def _render_expanded(result) -> str:
    _require(result, ("decomposition", "extended"), "ExpandedRectangles")
    D = result.decomposition
    ext = result.extended
    geo, total_w = _rect_geometry(D)
    pad = _STRIP_PERIODS * 34.0
    svg = _Svg(total_w + 2 * pad, 2 * pad + max(
        D.rect_height(k) for k in range(1, D.n + 1)
    ) * _SCALE + 2 * _MARGIN)
    y_top = pad + _MARGIN
    fade = {"L": "fadeL", "R": "fadeR", "T": "fadeU", "B": "fadeD"}
    for key in sorted(ext.strips):
        strip = ext.strips[key]
        k = strip.rect
        x0, w, h = geo[k]
        x0 += pad
        lo, hi = strip.lo * _SCALE, strip.hi * _SCALE
        color = strip_color(1, strip.j + 1, k, light=True)
        ext_len = pad - 6
        if strip.kind == "L":
            sx, sy, sw_, sh = x0 - ext_len, y_top + lo, ext_len, hi - lo
        elif strip.kind == "R":
            sx, sy, sw_, sh = x0 + w, y_top + lo, ext_len, hi - lo
        elif strip.kind == "T":
            sx, sy, sw_, sh = x0 + lo, y_top - ext_len, hi - lo, ext_len
        else:
            sx, sy, sw_, sh = x0 + lo, y_top + h, hi - lo, ext_len
        svg.rect(sx, sy, sw_, sh, fill=color, stroke="#888888", sw=0.8)
        svg.rect(sx, sy, sw_, sh, fill=f"url(#{fade[strip.kind]})", stroke="none")
        # switch path: rounded elbow from inside the rectangle into the strip
        mx, my = sx + sw_ / 2, sy + sh / 2
        ix = x0 + w * 0.5
        iy = y_top + h * 0.5
        svg.path(
            f"M {_fmt(ix)} {_fmt(iy)} Q {_fmt((ix + mx) / 2)} {_fmt(my)}"
            f" {_fmt(mx)} {_fmt(my)}",
            stroke="#555555",
            sw=0.9,
        )
    for k in range(1, D.n + 1):
        x0, w, h = geo[k]
        x0 += pad
        svg.rect(x0, y_top, w, h, fill="#f4eefb", sw=1.4)
        svg.text(x0 + w / 2, y_top + h / 2 + 4, f"Q{k}", size=12)
        for offsets, vertical in (
            (D.vertical_offsets[k], True),
            (D.horizontal_offsets[k], False),
        ):
            for offset in offsets[1:-1]:
                t = offset * _SCALE
                if vertical:
                    svg.line(x0 + t, y_top, x0 + t, y_top + h, stroke="#999999",
                             sw=0.7, dash="3,3")
                else:
                    svg.line(x0, y_top + t, x0 + w, y_top + t, stroke="#999999",
                             sw=0.7, dash="3,3")
    return svg.document()


# ---------------------------------------------------------------------------
# Complex2D


def _render_complex(result) -> str:
    _require(result, ("decomposition", "extended", "schema"), "Complex2D")
    D = result.decomposition
    ext = result.extended
    schema = result.schema
    col_w, col_gap = 14.0, 34.0
    col_h = 240.0

    columns: list[tuple] = []
    for k in range(1, D.n + 1):
        for side in ("L", "R", "T", "B"):
            columns.append(("E", k, side))
    for key in sorted(ext.strips):
        columns.append(("S",) + key)
    col_x = {
        col: _MARGIN + i * (col_w + col_gap) for i, col in enumerate(columns)
    }
    width = _MARGIN * 2 + len(columns) * (col_w + col_gap)
    svg = _Svg(width, col_h + 70)

    def seg_y(frac_a, frac_b):
        return 40 + frac_a * col_h, 40 + frac_b * col_h

    for col in columns:
        x = col_x[col]
        if col[0] == "E":
            _, k, side = col
            svg.rect(x, 40, col_w, col_h, fill="#fbfbfb", stroke="#444444", sw=0.8)
            svg.text(x + col_w / 2, 32, f"Q{k}.{side}", size=8)
        else:
            _, kind, idx = col
            svg.rect(x, 40, col_w, col_h, fill="#f0f4ff", stroke="#8888bb", sw=0.8)
            svg.rect(x, 40, col_w, col_h / 4, fill="url(#fadeU)", stroke="none")
            svg.text(x + col_w / 2, 32, f"{kind}{idx}", size=8)
    drawn = 0
    for gi, gen in enumerate(schema.generators):
        for depth, (sa, sb) in enumerate(gen.pair_states):
            color = strip_color(gi + 1, depth + 1, 1)
            for state in (sa, sb):
                if state[0] == "E":
                    _, rect, side, a, b = state
                    length = result.system.maps[side].edge_length(rect, D)
                    ya, yb = seg_y(min(a, b) / length, max(a, b) / length)
                    x = col_x[("E", rect, side)] + col_w / 2
                else:
                    _, key, za, zb, w = state
                    if w > _STRIP_PERIODS:
                        continue
                    lo = 1.0 - (w + min(za, zb)) / (_STRIP_PERIODS + 1)
                    hi = 1.0 - (w + max(za, zb)) / (_STRIP_PERIODS + 1)
                    ya, yb = seg_y(min(lo, hi), max(lo, hi))
                    x = col_x[("S",) + key] + col_w / 2
                svg.line(x, ya, x, yb, stroke=color, sw=3.0)
                drawn += 1
    svg.text(_MARGIN, col_h + 62,
             f"{drawn} identified segments across {len(schema.generators)}"
             f" generators (depth cap {schema.depth_cap})",
             size=9, anchor="start")
    return svg.document()


_RENDERERS = {
    "PieceMap": _render_piece_map,
    "Digraphs": _render_digraphs,
    "Orbits": _render_orbits,
    "ExpandedRectangles": _render_expanded,
    "Complex2D": _render_complex,
}
