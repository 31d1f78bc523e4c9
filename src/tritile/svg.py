"""Deterministic SVG rendering of patches.

Output is a pure function of the patch and options: fixed 9-significant-
digit decimal coordinates (display only, the model stays exact), one
polygon per tile in tile order, optional stretch overlay and s/l labels
on tight-stretch sides.  A pixel coordinate is one int quotient on the
patch's grid, which Python rounds correctly to the nearest float.
"""

from __future__ import annotations

from .geometry import Point
from .incidence import build_incidence
from .model import TilingPatch
from .stretches import StretchClass

_TILE_FILL = "#f4e8d0"
_STROKE = "#202020"
_CLASS_STYLE = {
    StretchClass.TIGHT: 'stroke="#1040c0" stroke-dasharray="6,4"',
    StretchClass.LOOSE_PROPER: 'stroke="#c01818"',
    StretchClass.IMPROPER: 'stroke="#c07818"',
}


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def render_svg(patch: TilingPatch, *, width_px: int = 800,
               stretch_overlay: bool = False,
               label_long_short: bool = False) -> bytes:
    tiles = patch.grid.tiles
    if not tiles:
        raise ValueError("empty patch")
    xs = [p.x for t in tiles for p in t.vertices]
    ys = [p.y for t in tiles for p in t.vertices]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    # pad span/20 per side: x is (20 * (x - min_x) + span) * width_px / den
    span = max(max_x - min_x, max_y - min_y)
    den = 20 * (max_x - min_x) + 2 * span
    height_px = (20 * (max_y - min_y) + 2 * span) * width_px / den

    def to_px(p: Point, k: int = 1) -> tuple[float, float]:
        return ((20 * (p.x - k * min_x) + k * span) * width_px / (k * den),
                (20 * (k * max_y - p.y) + k * span) * width_px / (k * den))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {width_px} {_fmt(height_px)}">',
    ]
    for t in tiles:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(to_px, t.vertices))
        out.append(f'<polygon points="{pts}" fill="{_TILE_FILL}" '
                   f'stroke="{_STROKE}" stroke-width="1"/>')

    if stretch_overlay or label_long_short:
        stretches, _ = build_incidence(patch).decomposition
        if stretch_overlay:
            for st in stretches:
                # st.a and st.b, on the grid, are the ends of its upper deck
                (x1, y1), (x2, y2) = to_px(st.above[0].a), to_px(st.above[-1].b)
                out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                           f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                           f'{_CLASS_STYLE[st.klass]} stroke-width="2.5" '
                           f'fill="none" opacity="0.8"/>')
        if label_long_short:
            for st in stretches:
                if st.klass is not StretchClass.TIGHT:
                    continue
                items = [(st.long_item, "l")] + [(i, "s") for i in st.short_items]
                for item, text in items:
                    # 36 * (5 * side midpoint + tile centroid) / 6
                    a, b, c = tiles[item.side[0]].vertices
                    x, y = to_px(Point(15 * (item.a.x + item.b.x) + 2 * (a.x + b.x + c.x),
                                       15 * (item.a.y + item.b.y) + 2 * (a.y + b.y + c.y)), 36)
                    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" '
                               f'font-size="11" text-anchor="middle" '
                               f'fill="#103010">{text}</text>')

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
