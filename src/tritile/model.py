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
scaled once by the common denominator D of its coordinates to ints.  A
parsed patch gets its grid from the parse, which reads each number once,
takes D over the file and puts each triangle in order on the grid's ints;
a patch built in code gets its grid on first use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .geometry import Point, Triangle, cross, format_rational, parse_rational, sq_dist, twice_area
from .radicals import Interval, LengthExpr

if TYPE_CHECKING:
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
        grid = self.grid
        return Fraction(sum(cross(*t.vertices) for t in grid.tiles), 2 * grid.scale ** 2)

    def region_area(self) -> Fraction | None:
        if self.region is None:
            return None
        return polygon_area(self.region)

    def with_region(self, region: tuple[Point, ...] | None) -> "TilingPatch":
        return TilingPatch(self.tiles, region, self.metadata)

    @cached_property
    def grid(self) -> Grid:
        """The patch on its integer grid.  `parse_tiling` stores the grid it
        built; for a patch built in code it is computed on first use, from
        the lcm of the coordinates' denominators."""
        pts = [p for t in self.tiles for p in t.vertices] + list(self.region or ())
        scale = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))

        def up(p: Point) -> Point:
            return Point(p.x.numerator * (scale // p.x.denominator),
                         p.y.numerator * (scale // p.y.denominator))

        return Grid(scale, tuple(Triangle.normalized(*map(up, t.vertices)) for t in self.tiles),
                    None if self.region is None else tuple(map(up, self.region)))

    @cached_property
    def validation(self) -> ValidationReport:
        """The validator's report on this patch, with its incidence graph."""
        from .validate import validate_patch
        return validate_patch(self)


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


def _read(values: dict[str, Fraction], args: list[str], line_no: int) -> None:
    """Read each number text not met before into `values`."""
    for a in args:
        if a not in values:
            try:
                values[a] = parse_rational(a)
            except ValueError as exc:
                raise TilingParseError(line_no, str(exc)) from exc


def parse_tiling(data: bytes | str) -> TilingPatch:
    """Parse TILING/1 text into a patch, with its grid; raises TilingParseError.

    The lines are scanned for syntax first, so the triangles are put in
    order only once D is known, on the grid's ints; the first fault in
    line order is the one reported."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = text.split("\n")
    if not lines or lines[0].rstrip() != MAGIC:
        raise TilingParseError(1, f"expected magic {MAGIC!r}")

    values: dict[str, Fraction] = {}  # each distinct number text, read once
    rows: list[tuple[int, list[str]]] = []
    region_args: list[str] | None = None
    metadata: list[tuple[str, str]] = []
    fault = None
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            fields = line.split()
            kind, args = fields[0], fields[1:]
            if kind == "tri":
                if len(args) != 6:
                    raise TilingParseError(line_no, "tri needs 6 coordinates")
                _read(values, args, line_no)
                rows.append((line_no, args))
            elif kind == "region":
                if region_args is not None:
                    raise TilingParseError(line_no, "duplicate region line")
                if not args:
                    raise TilingParseError(line_no, "region needs a vertex count")
                if not re.fullmatch("[0-9]+", args[0]):
                    raise TilingParseError(line_no, "malformed vertex count")
                n = int(args[0])
                if n < 3 or len(args) != 1 + 2 * n:
                    raise TilingParseError(line_no, f"region expects {2 * max(n, 3)} coordinates")
                region_args = args[1:]
                _read(values, region_args, line_no)
            elif kind == "meta":
                if not args:
                    raise TilingParseError(line_no, "meta needs a key")
                key = args[0]
                value = line.split(None, 2)[2] if len(args) > 1 else ""
                metadata.append((key, value))
            else:
                raise TilingParseError(line_no, f"unknown directive {kind!r}")
    except TilingParseError as exc:
        fault = exc  # unless a degenerate triangle on an earlier line wins

    scale = math.lcm(*(q.denominator for q in values.values()))
    on_grid = {a: q.numerator * (scale // q.denominator) for a, q in values.items()}
    rational = {on_grid[a]: q for a, q in values.items()}
    tiles, grid_tiles = [], []
    for line_no, args in rows:
        xy = [on_grid[a] for a in args]
        try:
            t = Triangle(Point(xy[0], xy[1]), Point(xy[2], xy[3]), Point(xy[4], xy[5]))
        except ValueError:
            raise TilingParseError(line_no, "degenerate triangle") from None
        grid_tiles.append(t)
        tiles.append(Triangle.normalized(*[Point(rational[p.x], rational[p.y]) for p in t.vertices]))
    if fault is not None:
        raise fault

    region = grid_region = None
    if region_args is not None:
        xy = [on_grid[a] for a in region_args]
        grid_region = tuple(map(Point, xy[::2], xy[1::2]))
        region = tuple(Point(rational[p.x], rational[p.y]) for p in grid_region)
    patch = TilingPatch(tuple(tiles), region, tuple(metadata))
    patch.__dict__["grid"] = Grid(scale, tuple(grid_tiles), grid_region)
    return patch


def serialize_tiling(patch: TilingPatch) -> bytes:
    """Canonical TILING/1 text; parse(serialize(p)) == p, so metadata that
    would not read back equal raises ValueError."""
    bad = [(k, v) for k, v in patch.metadata
           if k.split() != [k] or "#" in k + v or "\n" in v or v != v.strip()]
    if bad:
        raise ValueError("metadata would not read back equal: " + ", ".join(map(repr, bad)))
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
