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

A patch is its :class:`Grid`: its tiles and region times the common
denominator D of their coordinates (:func:`to_grid`), all ints, on which
every analysis runs.  :meth:`TilingPatch.from_grid` builds one from ints,
putting each triangle in order once; the parser, every generator and
:func:`apply_affine` use it, and :func:`serialize_tiling` writes the ints.
A patch built in code from rationals is put on its grid at construction.
Rational tiles and region are derived from the grid only when read.  A
disk piece selects its ambient's grid tiles, on its ambient's scale.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

from .geometry import Point, Triangle, cross, format_rational, parse_rational, sq_dist
from .radicals import START_BITS, Interval, LengthExpr

if TYPE_CHECKING:
    from .validate import ValidationReport

MAGIC = "#TILING 1"


class TilingParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DegenerateRow(ValueError):
    """Row `index` of the rows handed to :meth:`TilingPatch.from_grid` is collinear."""

    def __init__(self, index: int):
        super().__init__(f"degenerate triangle in row {index}")
        self.index = index


class TilingPatch:
    """A finite collection of tiles, optionally with its region polygon.

    Tile order is preserved and serves as the stable tile identifier in
    every report.  The patch itself is plain data; whether the tiles
    actually tile the region is the validator's business.  A patch is
    immutable, so its analysis is computed on first use and kept on it.
    A patch holds its :class:`Grid` and metadata and derives its rational
    tiles and region on first read; one built from rationals is put on
    the grid at once, by `to_grid` and `from_grid`.  Equality compares
    the rational tiles, region and metadata, on the grids' ints.
    """

    def __init__(self, tiles: Iterable[Triangle], region: Iterable[Point] | None = None,
                 metadata: Iterable[tuple[str, str]] = ()):
        coords = [c for t in tiles for p in t.vertices for c in p]
        n = len(coords)
        scale, ints = to_grid(*coords, *(c for p in region or () for c in p))
        self.__dict__.update(vars(self.from_grid(scale, [ints[i:i + 6] for i in range(0, n, 6)],
                                                 None if region is None else ints[n:], metadata)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable TilingPatch")

    def __eq__(self, other: object) -> bool:  # each grid's ints put on the other's scale
        return isinstance(other, TilingPatch) and self.metadata == other.metadata and (
            self.grid.rows(other.grid.scale) == other.grid.rows(self.grid.scale))

    def __hash__(self) -> int:
        return hash((len(self.grid.tiles), self.metadata))  # scale-free, as equality is

    def __len__(self) -> int:
        return len(self.grid.tiles)

    def tile_area_sum(self) -> Fraction:
        grid = self.grid
        return Fraction(sum(cross(*t.vertices) for t in grid.tiles), 2 * grid.scale ** 2)

    def with_region(self, region: tuple[Point, ...] | None) -> "TilingPatch":
        # the grid's rows and the region, on their common scale
        scale, (k, *ints) = to_grid(Fraction(1, self.grid.scale), *(c for p in region or () for c in p))
        return TilingPatch.from_grid(scale, self.grid.rows(k)[0], region and ints, self.metadata)

    @classmethod
    def wrap(cls, grid: Grid, metadata: Iterable[tuple[str, str]] = ()) -> "TilingPatch":
        """The patch whose grid is `grid`."""
        patch = cls.__new__(cls)
        patch.__dict__.update(grid=grid, metadata=tuple(metadata))
        return patch

    @classmethod
    def from_grid(cls, scale: int, rows: Sequence[Sequence[int]], region: Sequence[int] | None = None,
                  metadata: Iterable[tuple[str, str]] = ()) -> "TilingPatch":
        """The patch whose tile i is ``rows[i]`` = x1 y1 x2 y2 x3 y3 and whose
        region is x1 y1 ... xn yn, every coordinate an int over `scale`, as
        its grid.  The scale is first cut to the lcm of the coordinates'
        denominators by one gcd over it and them.  Each distinct point gets
        one grid point, and each triangle is put in order once, on the
        ints.  Raises :class:`DegenerateRow`."""
        g = math.gcd(scale, *chain.from_iterable(rows), *(region or ()))
        points: dict[tuple[int, int], Point] = {}  # given ints -> grid point

        def point(x: int, y: int) -> Point:
            return points.setdefault((x, y), Point(x // g, y // g))

        get = points.get
        tiles = []
        for i, (x1, y1, x2, y2, x3, y3) in enumerate(rows):
            try:
                tiles.append(Triangle(get((x1, y1)) or point(x1, y1), get((x2, y2)) or point(x2, y2),
                                      get((x3, y3)) or point(x3, y3)))
            except ValueError:
                raise DegenerateRow(i) from None
        grid_region = None if region is None else tuple(
            get(xy) or point(*xy) for xy in zip(region[::2], region[1::2]))
        return cls.wrap(Grid(scale // g, tuple(tiles), grid_region), metadata)

    @cached_property
    def tiles(self) -> tuple[Triangle, ...]:
        """The rational tiles, one point per distinct grid point."""
        points = {p: self.grid.point(p) for t in self.grid.tiles for p in t.vertices}
        return tuple(Triangle(*map(points.__getitem__, t.vertices)) for t in self.grid.tiles)

    @cached_property
    def region(self) -> tuple[Point, ...] | None:
        return None if self.grid.region is None else tuple(map(self.grid.point, self.grid.region))

    @cached_property
    def validation(self) -> ValidationReport:
        """The validator's report on this patch, with its incidence graph."""
        from .validate import validate_patch
        return validate_patch(self)


@dataclass(frozen=True)
class Grid:
    """A patch as it is held: its tiles and region times `scale`, a common
    denominator, the least one but for a disk piece, which keeps its
    ambient's.  Every coordinate is an int; tile i side s is still tile i
    side s.  Grid point p stands for ``point(p)`` = p / scale, a squared
    grid length n for n / scale**2.  Each side is squared once, into
    ``side_squares``, and each square q rooted once, by ``bounds``, into
    ``roots``: q -> the floor and ceiling of sqrt(q) * 2**START_BITS."""

    scale: int
    tiles: tuple[Triangle, ...]
    region: tuple[Point, ...] | None
    roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def side_squares(self) -> tuple[tuple[int, int, int], ...]:
        """Tile i's squared grid sides in side order, at index i."""
        return tuple((sq_dist(t.a, t.b), sq_dist(t.b, t.c), sq_dist(t.c, t.a)) for t in self.tiles)

    def bounds(self, terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
        """Ints lo <= hi around 2**START_BITS * sum(k * sqrt(q)), for squared sides q and
        signs k = +-1: the first two of ``radicals._bounds(terms, START_BITS)``."""
        lo = hi = 0
        for q, k in terms:
            if q not in self.roots:
                s = math.isqrt(m := q << 2 * START_BITS)
                self.roots[q] = (s, s + (s * s != m))
            floor, ceil = self.roots[q]
            lo, hi = (lo + floor, hi + ceil) if k > 0 else (lo - ceil, hi - floor)
        return lo, hi

    def rows(self, k: int) -> tuple[list[list[int]], list[int] | None]:
        """`from_grid`'s rows and region on scale ``k * scale``: each grid int times k."""
        rows = [[c * k for p in t.vertices for c in p] for t in self.tiles]
        return rows, None if self.region is None else [c * k for p in self.region for c in p]

    def point(self, p: Point) -> Point:
        """The rational point that p, on the grid's scale, stands for."""
        return Point(Fraction(p.x, self.scale), Fraction(p.y, self.scale))

    def length(self, sq: int, coeff: Fraction | int = 1) -> LengthExpr:
        return LengthExpr.sqrt(Fraction(sq, self.scale ** 2), coeff)


def to_grid(*values: Fraction) -> tuple[int, list[int]]:
    """(D, each value times D), D the lcm of the values' denominators."""
    scale = math.lcm(*(q.denominator for q in values))
    return scale, [q.numerator * (scale // q.denominator) for q in values]


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
    order only once D is known, by `TilingPatch.from_grid` on the grid's
    ints; the first fault in line order is the one reported."""
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

    scale, ints = to_grid(*values.values())
    on_grid = dict(zip(values, ints))
    try:
        patch = TilingPatch.from_grid(
            scale, [[on_grid[a] for a in args] for _, args in rows],
            None if fault or region_args is None else [on_grid[a] for a in region_args], metadata)
    except DegenerateRow as exc:
        raise TilingParseError(rows[exc.index][0], "degenerate triangle") from None
    if fault is not None:
        raise fault
    return patch


def serialize_tiling(patch: TilingPatch) -> bytes:
    """Canonical TILING/1 text, written from the grid's ints;
    parse(serialize(p)) == p, so metadata that would not read back equal
    raises ValueError."""
    bad = [(k, v) for k, v in patch.metadata
           if k.split() != [k] or "#" in k + v or "\n" in v or v != v.strip()]
    if bad:
        raise ValueError("metadata would not read back equal: " + ", ".join(map(repr, bad)))
    grid = patch.grid
    text: dict[int, str] = {}  # one text per distinct int coordinate

    def coords(points: Iterable[Point]) -> str:
        return " ".join([text.get(c) or text.setdefault(c, format_rational(c, grid.scale))
                         for p in points for c in p])

    out = [MAGIC]
    if grid.region is not None:
        out.append(f"region {len(grid.region)} {coords(grid.region)}")
    for key, value in patch.metadata:
        out.append(f"meta {key} {value}".rstrip())
    for t in grid.tiles:
        out.append(f"tri {coords(t.vertices)}")
    return ("\n".join(out) + "\n").encode("utf-8")


def apply_affine(patch: TilingPatch, m: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]],
                 v: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))) -> TilingPatch:
    """Map every point through x -> m@x + v, exactly, on the grid: with L
    the common denominator of m and v*D, a grid point p over scale D maps
    to the ints (L*m)@p + L*v*D over D*L.  A region polygon is reversed
    when det(m) < 0 to stay CCW.
    """
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise ValueError("singular matrix")
    grid = patch.grid
    lcm, (a, b, c, d, e, f) = to_grid(*m[0], *m[1], v[0] * grid.scale, v[1] * grid.scale)

    def image(points: Iterable[Point]) -> list[int]:
        return [z for p in points for z in (a * p.x + b * p.y + e, c * p.x + d * p.y + f)]

    region = None if grid.region is None else image(grid.region if det > 0 else grid.region[::-1])
    return TilingPatch.from_grid(grid.scale * lcm, [image(t.vertices) for t in grid.tiles],
                                 region, patch.metadata)


def side_length_range(patch: TilingPatch, precision_bits: int = 64) -> tuple[Interval, Interval]:
    """Enclosures of the min and max side length over all tiles.

    Each interval has width at most 2**-precision_bits times its midpoint.
    Min/max are selected exactly on squared lengths; only the final square
    roots are enclosed.
    """
    grid = patch.grid
    if not grid.tiles:
        raise ValueError("empty patch")
    lo_sq, hi_sq = min(map(min, grid.side_squares)), max(map(max, grid.side_squares))

    def enclose(s: int) -> Interval:
        return grid.length(s).refine_until(
            lambda iv: iv.width * (1 << precision_bits) <= iv.midpoint, 8)

    return enclose(lo_sq), enclose(hi_sq)
