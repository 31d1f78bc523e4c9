"""Tiling data model and the TILING/1 interchange format.

TILING/1 is a line-oriented UTF-8 text format:

    #TILING 1
    region n x1 y1 ... xn yn     (optional, CCW simple polygon)
    meta key value               (optional, repeatable)
    tri x1 y1 x2 y2 x3 y3        (one per tile)

Numbers are rationals, `p` or `p/q` with positive q, and the region's
vertex count is a plain integer, all in ASCII digits.  A `#` starts a
comment anywhere except inside the line-1 magic.  Parsing performs no
validation beyond syntax and triangle nondegeneracy; see
:func:`tritile.validate.validate_patch` for the geometric checks.

A patch holds rationals; its analysis runs on its :class:`Grid`, the patch
scaled once by the common denominator of its coordinates to ints.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .geometry import Point, Triangle, format_rational, parse_rational, sq_dist, twice_area
from .radicals import Interval, LengthExpr

if TYPE_CHECKING:
    from .incidence import IncidenceGraph
    from .validate import ValidationReport

MAGIC = "#TILING 1"


class TilingParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TilingPatch:
    """A finite collection of tiles, optionally with its region polygon.

    Tile order is preserved and serves as the stable tile identifier in
    every report.  The patch itself is plain data; whether the tiles
    actually tile the region is the validator's business.  A patch is
    immutable, so its analysis is computed on first use and kept on it.
    """

    tiles: tuple[Triangle, ...]
    region: tuple[Point, ...] | None = None
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", tuple(self.tiles))
        if self.region is not None:
            object.__setattr__(self, "region", tuple(self.region))
        object.__setattr__(self, "metadata", tuple(self.metadata))

    def __len__(self) -> int:
        return len(self.tiles)

    def tile_area_sum(self) -> Fraction:
        return sum((t.area for t in self.tiles), Fraction(0))

    def region_area(self) -> Fraction | None:
        if self.region is None:
            return None
        return polygon_area(self.region)

    def with_region(self, region: tuple[Point, ...] | None) -> "TilingPatch":
        return TilingPatch(self.tiles, region, self.metadata)

    @cached_property
    def grid(self) -> Grid:
        """The patch on its integer grid, computed on first use."""
        pts = [p for t in self.tiles for p in t.vertices] + list(self.region or ())
        scale = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))

        def up(p: Point) -> Point:
            return Point(p.x.numerator * (scale // p.x.denominator),
                         p.y.numerator * (scale // p.y.denominator))

        return Grid(scale, tuple(Triangle(*map(up, t.vertices)) for t in self.tiles),
                    None if self.region is None else tuple(map(up, self.region)))

    @cached_property
    def validation(self) -> ValidationReport:
        """The validator's report on this patch, with the edge soup it built."""
        from .validate import validate_patch
        return validate_patch(self)

    @cached_property
    def incidence(self) -> IncidenceGraph:
        """The incidence graph; see :func:`tritile.incidence.build_incidence`."""
        from .incidence import IncidenceGraph
        return IncidenceGraph.from_report(self, self.validation)


@dataclass(frozen=True)
class Grid:
    """A patch's tiles and region times `scale`, the lcm of their coordinates'
    denominators: every coordinate is an int, and tile i side s is still
    tile i side s.  A grid point p stands for p / scale, a squared grid
    length n for n / scale**2."""

    scale: int
    tiles: tuple[Triangle, ...]
    region: tuple[Point, ...] | None

    def point(self, p: Point) -> Point:
        """The rational point that p, on the grid's scale, stands for."""
        return Point(Fraction(p.x, self.scale), Fraction(p.y, self.scale))

    def of(self, p: Point) -> Point:
        """A rational point on the grid's scale (int coordinates on the grid)."""
        x, y = Fraction(p.x * self.scale), Fraction(p.y * self.scale)
        return Point(x.numerator if x.denominator == 1 else x,
                     y.numerator if y.denominator == 1 else y)

    def length(self, sq: int, coeff: Fraction | int = 1) -> LengthExpr:
        return LengthExpr.sqrt(Fraction(sq, self.scale ** 2), coeff)

    def perimeter(self, t: Triangle) -> LengthExpr:
        return LengthExpr.sum(self.length(sq_dist(p, q)) for p, q in t.sides())


def polygon_area(poly: tuple[Point, ...]) -> Fraction:
    """Signed shoelace area (positive for CCW)."""
    return Fraction(twice_area(poly), 2)


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_tiling(data: bytes | str) -> TilingPatch:
    """Parse TILING/1 text into a patch; raises TilingParseError."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = text.split("\n")
    if not lines or lines[0].rstrip() != MAGIC:
        raise TilingParseError(1, f"expected magic {MAGIC!r}")

    tiles: list[Triangle] = []
    region: tuple[Point, ...] | None = None
    metadata: list[tuple[str, str]] = []

    for line_no, raw in enumerate(lines[1:], start=2):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "tri":
            if len(args) != 6:
                raise TilingParseError(line_no, "tri needs 6 coordinates")
            try:
                coords = [parse_rational(a) for a in args]
            except ValueError as exc:
                raise TilingParseError(line_no, str(exc)) from exc
            pts = [Point(coords[i], coords[i + 1]) for i in (0, 2, 4)]
            try:
                tiles.append(Triangle(*pts))
            except ValueError as exc:
                raise TilingParseError(line_no, f"degenerate triangle") from exc
        elif kind == "region":
            if region is not None:
                raise TilingParseError(line_no, "duplicate region line")
            if not args:
                raise TilingParseError(line_no, "region needs a vertex count")
            if not re.fullmatch("[0-9]+", args[0]):
                raise TilingParseError(line_no, "malformed vertex count")
            n = int(args[0])
            if n < 3 or len(args) != 1 + 2 * n:
                raise TilingParseError(line_no, f"region expects {2 * max(n, 3)} coordinates")
            try:
                coords = [parse_rational(a) for a in args[1:]]
            except ValueError as exc:
                raise TilingParseError(line_no, str(exc)) from exc
            region = tuple(Point(coords[2 * i], coords[2 * i + 1]) for i in range(n))
        elif kind == "meta":
            if not args:
                raise TilingParseError(line_no, "meta needs a key")
            key = args[0]
            value = line.split(None, 2)[2] if len(args) > 1 else ""
            metadata.append((key, value))
        else:
            raise TilingParseError(line_no, f"unknown directive {kind!r}")

    return TilingPatch(tuple(tiles), region, tuple(metadata))


def serialize_tiling(patch: TilingPatch) -> bytes:
    """Canonical TILING/1 text; parse(serialize(p)) == p."""
    out = [MAGIC]
    if patch.region is not None:
        coords = " ".join(
            f"{format_rational(p.x)} {format_rational(p.y)}" for p in patch.region)
        out.append(f"region {len(patch.region)} {coords}")
    for key, value in patch.metadata:
        out.append(f"meta {key} {value}".rstrip())
    for t in patch.tiles:
        coords = " ".join(
            f"{format_rational(p.x)} {format_rational(p.y)}" for p in t.vertices)
        out.append(f"tri {coords}")
    return ("\n".join(out) + "\n").encode("utf-8")


def apply_affine(patch: TilingPatch, m: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]],
                 v: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))) -> TilingPatch:
    """Map every point through x -> m@x + v, exactly.

    Orientation is renormalized by the Triangle constructor when
    det(m) < 0; a region polygon is re-reversed to stay CCW.
    """
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


def side_length_range(patch: TilingPatch, precision_bits: int = 64) -> tuple[Interval, Interval]:
    """Enclosures of the min and max side length over all tiles.

    Each interval has width at most 2**-precision_bits times its midpoint.
    Min/max are selected exactly on squared lengths; only the final square
    roots are enclosed.
    """
    if not patch.tiles:
        raise ValueError("empty patch")
    grid = patch.grid
    squares = [sq_dist(p, q) for t in grid.tiles for p, q in t.sides()]
    lo_sq, hi_sq = min(squares), max(squares)

    def enclose(s: int) -> Interval:
        return grid.length(s).refine_until(
            lambda iv: iv.width * (1 << precision_bits) <= iv.midpoint, 8)

    return enclose(lo_sq), enclose(hi_sq)
