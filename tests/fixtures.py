"""Shared hand-built patch fixtures with known exact counts, and exact
oracles that the library itself does not need."""

import math
from fractions import Fraction

from tritile import Point, Stretch, TilingPatch, Triangle
from tritile.geometry import cross, sq_dist, twice_area
from tritile.model import Grid

F = Fraction
P = Point.of


def segment_sq_dist(a: Point, b: Point, p: Point) -> Fraction:
    """Exact squared distance from p to the closed segment ab."""
    ab2 = sq_dist(a, b)
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    if dot <= 0:
        return sq_dist(a, p)
    if dot >= ab2:
        return sq_dist(b, p)
    # the foot lies inside: the distance to the line, cross^2 / |ab|^2
    return Fraction(cross(a, b, p) ** 2, ab2)


def triangle_contains(t: Triangle, p: Point) -> bool:
    """Closed containment test."""
    return cross(t.a, t.b, p) >= 0 and cross(t.b, t.c, p) >= 0 and cross(t.c, t.a, p) >= 0


def triangle_sq_dist(t: Triangle, p: Point) -> Fraction:
    """Exact squared distance from p to the closed triangle."""
    if triangle_contains(t, p):
        return 0
    return min(segment_sq_dist(a, b, p) for a, b in t.sides())


def polygon_area(poly: tuple[Point, ...]) -> Fraction:
    """Signed shoelace area (positive for CCW)."""
    return Fraction(twice_area(poly), 2)


def region_area(patch: TilingPatch) -> Fraction | None:
    """The area of the patch's region polygon, or None without one."""
    if patch.region is None:
        return None
    return polygon_area(patch.region)


def lcm_grid(patch: TilingPatch) -> Grid:
    """The patch's grid computed from its rational points alone, with no
    `from_grid`: each point times the lcm of the denominators, each tile
    in the order it has (`Triangle` keeps it, as scaling does not change it)."""
    pts = [p for t in patch.tiles for p in t.vertices] + list(patch.region or ())
    scale = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))

    def up(p: Point) -> Point:
        return Point(p.x.numerator * (scale // p.x.denominator),
                     p.y.numerator * (scale // p.y.denominator))

    return Grid(scale, tuple(Triangle(*map(up, t.vertices)) for t in patch.tiles),
                None if patch.region is None else tuple(map(up, patch.region)))


def apply_affine_rational(patch: TilingPatch, m, v=(F(0), F(0))) -> TilingPatch:
    """`tritile.apply_affine` on the rational points: every tile rebuilt as a
    `Triangle`, the region reversed when det(m) < 0."""
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise ValueError("singular matrix")

    def f(p: Point) -> Point:
        return Point(m[0][0] * p.x + m[0][1] * p.y + v[0],
                     m[1][0] * p.x + m[1][1] * p.y + v[1])

    tiles = tuple(Triangle(f(t.a), f(t.b), f(t.c)) for t in patch.tiles)
    region = None
    if patch.region is not None:
        mapped = tuple(f(p) for p in patch.region)
        region = mapped if det > 0 else tuple(reversed(mapped))
    return TilingPatch(tiles, region, patch.metadata)


def side_items(stretch: Stretch) -> list:
    """The stretch's items that are whole tile sides, both decks."""
    return [i for i in stretch.above + stretch.below if i.is_side]


def square_diag() -> TilingPatch:
    """Unit square split by one diagonal: one shared side."""
    return TilingPatch(
        (Triangle(P(0, 0), P(1, 0), P(1, 1)), Triangle(P(0, 0), P(1, 1), P(0, 1))),
        (P(0, 0), P(1, 0), P(1, 1), P(0, 1)))


def rect_l_shape() -> TilingPatch:
    """An L-shaped region with shared sides and one partial boundary edge:
    the side (0,1)-(2,1) of the lower rectangle runs half inside (under
    the upper square) and half along the region boundary."""
    tiles = (
        Triangle(P(0, 0), P(2, 0), P(2, 1)),
        Triangle(P(0, 0), P(2, 1), P(0, 1)),
        Triangle(P(0, 1), P(1, 1), P(0, 2)),
        Triangle(P(1, 1), P(1, 2), P(0, 2)),
    )
    region = (P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2))
    return TilingPatch(tiles, region)


def notched_split() -> TilingPatch:
    """Depth-1 recursive split with one extra tile glued onto half of a
    boundary side: share-free, nonconvex, with a partial boundary edge and
    an improper stretch of size 2.

    Known counts: t=5, v=8, e=12, e_full=4, e_part=1, v*=4,
    sigma_tight=3, L_loose=2.
    """
    tiles = (
        Triangle(P(0, 0), P(1, 0), P(0, 1)),
        Triangle(P(-1, 0), P(2, -1), P(1, 0)),
        Triangle(P(2, -1), P(0, 2), P(0, 1)),
        Triangle(P(0, 2), P(-1, 0), P(0, 0)),
        Triangle(P(-1, 0), P(F(1, 2), F(-1, 2)), P(0, -1)),
    )
    return TilingPatch(tiles)


def offset_quad() -> TilingPatch:
    """Triangle region split along a horizontal line whose two decks break
    at different interior points: one loose proper stretch of size 4
    (plus two shared sides away from it)."""
    tiles = (
        Triangle(P(0, 0), P(1, 0), P(0, 2)),
        Triangle(P(1, 0), P(4, 0), P(0, 2)),
        Triangle(P(0, 0), P(0, -2), P(3, 0)),
        Triangle(P(3, 0), P(0, -2), P(4, 0)),
    )
    region = (P(0, -2), P(4, 0), P(0, 2))
    return TilingPatch(tiles, region)


def bowtie() -> TilingPatch:
    """Two triangles meeting at a single point: a pinched union."""
    return TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),
                        Triangle(P(0, 0), P(-1, 0), P(0, -1))))


def annulus() -> TilingPatch:
    """3x3 block of split unit squares with the middle square missing."""
    tiles = []
    for x in range(3):
        for y in range(3):
            if (x, y) == (1, 1):
                continue
            a, b, c, d = P(x, y), P(x + 1, y), P(x + 1, y + 1), P(x, y + 1)
            tiles += [Triangle(a, b, c), Triangle(a, c, d)]
    return TilingPatch(tuple(tiles))
