"""Deterministic SVG rendering of patches.

Output is a pure function of the patch and options: fixed 9-significant-
digit decimal coordinates (display only, the model stays exact), one
polygon per tile in tile order, optional stretch overlay and s/l labels
on tight-stretch sides.
"""

from __future__ import annotations

from fractions import Fraction

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
    if not patch.tiles:
        raise ValueError("empty patch")
    xs = [p.x for t in patch.tiles for p in t.vertices]
    ys = [p.y for t in patch.tiles for p in t.vertices]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y)
    pad = span / 20
    scale = Fraction(width_px) / (max_x - min_x + 2 * pad)
    height_px = float((max_y - min_y + 2 * pad) * scale)

    def to_px(p: Point) -> tuple[float, float]:
        return (float((p.x - min_x + pad) * scale),
                float((max_y - p.y + pad) * scale))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {width_px} {_fmt(height_px)}">',
    ]
    for t in patch.tiles:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(to_px, t.vertices))
        out.append(f'<polygon points="{pts}" fill="{_TILE_FILL}" '
                   f'stroke="{_STROKE}" stroke-width="1"/>')

    if stretch_overlay or label_long_short:
        stretches, _ = build_incidence(patch).decomposition
        if stretch_overlay:
            for st in stretches:
                (x1, y1), (x2, y2) = to_px(st.a), to_px(st.b)
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
                    tile = patch.tiles[item.side[0]]
                    cx = (tile.a.x + tile.b.x + tile.c.x) / 3
                    cy = (tile.a.y + tile.b.y + tile.c.y) / 3
                    mx = (item.a.x + item.b.x) / 2
                    my = (item.a.y + item.b.y) / 2
                    x, y = to_px(Point(mx + (cx - mx) / 6, my + (cy - my) / 6))
                    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" '
                               f'font-size="11" text-anchor="middle" '
                               f'fill="#103010">{text}</text>')

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
