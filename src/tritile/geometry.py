"""Exact geometric primitives on rational or integer coordinates.

All predicates are decided by integer/rational arithmetic; there are no
epsilon tolerances anywhere.  A point is its exact coordinate pair.
Every primitive also takes points with int coordinates and stays on ints
(a patch's analysis runs on its :class:`tritile.model.Grid`); a quotient,
where one is needed, is an exact ``Fraction``, never a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .radicals import LengthExpr

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the `p` or `p/q` text form (q > 0, ASCII digits only)."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text:
        p, q = text.split("/")
        if int(q) == 0:
            raise ValueError(f"malformed rational {text!r} (zero denominator)")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


def format_rational(n: int, d: int) -> str:
    """The text of n/d, d > 0, in lowest terms: `p/q`, or `p` when q is 1."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class Orientation(Enum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


class Point(NamedTuple):
    """A point is its coordinate pair: equality, hash and order are the
    tuple's, and ``+``, ``-`` and ``scale`` are vector operations."""

    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x, y) -> "Point":
        return cls(Fraction(x), Fraction(y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, k: Fraction) -> "Point":
        return Point(self.x * k, self.y * k)

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed cross product (a-o) x (b-o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def twice_area(poly: tuple[Point, ...]) -> Fraction:
    """Twice the signed area of a polygon (positive for CCW): an int on ints."""
    return sum(cross(poly[0], a, b) for a, b in zip(poly[1:], poly[2:]))


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Turn direction of the ordered triple, computed exactly."""
    c = cross(p, q, r)
    if c > 0:
        return Orientation.CCW
    if c < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def is_convex(poly: tuple[Point, ...]) -> bool:
    """True iff every turn of the closed polygon is strictly CCW."""
    n = len(poly)
    return all(cross(poly[i - 1], poly[i], poly[(i + 1) % n]) > 0 for i in range(n))


def sq_dist(a: Point, b: Point) -> Fraction | int:
    """Squared distance: an int between grid points."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def point_on_segment_interior(a: Point, b: Point, p: Point) -> bool:
    """True iff p is collinear with and strictly between a and b."""
    if a == b:
        raise ValueError("degenerate segment")
    if cross(a, b, p) != 0:
        return False
    # strictly between: positive dot products from both endpoints
    d1 = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    d2 = (p.x - b.x) * (a.x - b.x) + (p.y - b.y) * (a.y - b.y)
    return d1 > 0 and d2 > 0


@dataclass(frozen=True, slots=True)
class Triangle:
    """Nondegenerate triangle, stored CCW with the smallest vertex first.

    Construction normalizes vertex order, so two triangles with the same
    vertex set compare equal regardless of input order.
    """

    a: Point
    b: Point
    c: Point

    def __post_init__(self) -> None:
        turn = cross(self.a, self.b, self.c)
        if turn == 0:
            raise ValueError(f"degenerate triangle {self.a} {self.b} {self.c}")
        pts = [self.a, self.b, self.c] if turn > 0 else [self.a, self.c, self.b]
        start = pts.index(min(pts))
        pts = pts[start:] + pts[:start]
        object.__setattr__(self, "a", pts[0])
        object.__setattr__(self, "b", pts[1])
        object.__setattr__(self, "c", pts[2])

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    def sides(self) -> tuple[tuple[Point, Point], tuple[Point, Point], tuple[Point, Point]]:
        """Side i runs from vertex i to vertex i+1 (mod 3)."""
        return ((self.a, self.b), (self.b, self.c), (self.c, self.a))

    @property
    def area(self) -> Fraction:
        return Fraction(cross(self.a, self.b, self.c), 2)

    def squared_sides(self) -> tuple[Fraction | int, ...]:
        """Squared side lengths, ascending: ints for a grid triangle."""
        return tuple(sorted(sq_dist(p, q) for p, q in self.sides()))

    def perimeter(self) -> LengthExpr:
        return LengthExpr.sum(LengthExpr.sqrt(sq_dist(p, q)) for p, q in self.sides())


def triangle_metrics(t: Triangle) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction], LengthExpr]:
    """(exact area, squared side multiset, perimeter as a radical sum)."""
    return (t.area, t.squared_sides(), t.perimeter())


def congruence_check(t1: Triangle, t2: Triangle) -> bool:
    """Side-side-side congruence on exact squared lengths."""
    return t1.squared_sides() == t2.squared_sides()


def reflect_across_line(x: Point, y: Point, p: Point) -> Point:
    """Mirror image of p across the line through x and y."""
    d = y - x
    w = p - x
    n2 = d.x * d.x + d.y * d.y
    t = Fraction(w.x * d.x + w.y * d.y, n2)
    # p' = x + 2*t*d - w
    return Point(x.x + 2 * t * d.x - w.x, x.y + 2 * t * d.y - w.y)


def reflect_through_midpoint(x: Point, y: Point, p: Point) -> Point:
    return Point(x.x + y.x - p.x, x.y + y.y - p.y)


def reflect_across_bisector(x: Point, y: Point, p: Point) -> Point:
    """Mirror image across the perpendicular bisector of segment xy."""
    m = Point(Fraction(x.x + y.x, 2), Fraction(x.y + y.y, 2))
    d = y - x
    n = Point(-d.y, d.x)  # perpendicular direction through m
    return reflect_across_line(m, m + n, p)


class ReflectionKind(Enum):
    IDENTITY = "identity"
    LINE_XY = "line_xy"
    MIDPOINT_XY = "midpoint_xy"
    PERP_BISECTOR_XY = "perp_bisector_xy"
    NONE = "none"


def reflection_classify(x: Point, y: Point, z: Point, zp: Point) -> ReflectionKind:
    """Which symmetry of the base segment xy maps apex z to zp.

    Checked in a fixed order (identity, line, midpoint, bisector), so when
    two symmetries coincide, e.g. for an apex above the midpoint, the
    earlier kind wins.
    """
    if x == y:
        raise ValueError("base points coincide")
    if cross(x, y, z) == 0 or cross(x, y, zp) == 0:
        raise ValueError("apex lies on the base line")
    if zp == z:
        return ReflectionKind.IDENTITY
    if zp == reflect_across_line(x, y, z):
        return ReflectionKind.LINE_XY
    if zp == reflect_through_midpoint(x, y, z):
        return ReflectionKind.MIDPOINT_XY
    if zp == reflect_across_bisector(x, y, z):
        return ReflectionKind.PERP_BISECTOR_XY
    return ReflectionKind.NONE


def equal_invariant_apexes(x: Point, y: Point, z: Point) -> frozenset[Point]:
    """All apexes zp for which triangle xy-zp has the area and perimeter
    of xyz.

    These are exactly the images of z under the three base symmetries
    (plus z itself): same perimeter pins zp to the ellipse with foci x, y
    through z, same area pins |zp - line xy|, and the four intersection
    points are the symmetry images.
    """
    if x == y:
        raise ValueError("base points coincide")
    if cross(x, y, z) == 0:
        raise ValueError("apex lies on the base line")
    return frozenset({
        z,
        reflect_across_line(x, y, z),
        reflect_through_midpoint(x, y, z),
        reflect_across_bisector(x, y, z),
    })
