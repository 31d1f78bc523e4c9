"""Exact constructions of the test-corpus tiling families.

Every generator self-validates its output, once, and raises
:class:`GeneratorError` instead of returning a broken patch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (Point, Triangle, cross, reflect_across_bisector,
                       reflect_across_line, reflect_through_midpoint)
from .model import TilingPatch

F = Fraction


class GeneratorError(ValueError):
    pass


def _self_validate(patch: TilingPatch, what: str) -> TilingPatch:
    """Validate once; a patch without a region gets the derived one."""
    report = patch.validation
    if not report.ok:
        raise GeneratorError(
            f"{what} produced an invalid patch: "
            + "; ".join(v.describe() for v in report.violations))
    return patch if patch.region is not None else patch.with_region(report.derived_region)


@dataclass(frozen=True, slots=True)
class RecursiveSplitSpec:
    """Triangle-in-triangle subdivision: each level wraps the previous
    one in three slivers, giving 3*depth + 1 tiles and no shared sides."""

    base: tuple[Point, Point, Point]
    t: Fraction
    depth: int

    def __post_init__(self) -> None:
        if cross(*self.base) <= 0:
            raise GeneratorError("base triangle must be counterclockwise")
        if self.t <= 1:
            raise GeneratorError("expansion factor must exceed 1")
        if self.depth < 0:
            raise GeneratorError("depth must be nonnegative")


def gen_recursive_split(spec: RecursiveSplitSpec) -> TilingPatch:
    """Level k+1 vertex i sits on the line through level-k vertices i+1, i:
    w_i = v_{i+1} + t*(v_i - v_{i+1}).  Each sliver (w_i, w_{i+1}, v_{i+1})
    therefore has a side collinear with a side of the inner triangle, which
    is what keeps every stretch tight."""
    level = list(spec.base)
    tiles = [Triangle(*level)]
    for _ in range(spec.depth):
        nxt = [Point(level[(i + 1) % 3].x + spec.t * (level[i].x - level[(i + 1) % 3].x),
                     level[(i + 1) % 3].y + spec.t * (level[i].y - level[(i + 1) % 3].y))
               for i in range(3)]
        for i in range(3):
            tiles.append(Triangle(nxt[i], nxt[(i + 1) % 3], level[(i + 1) % 3]))
        level = nxt

    region = tuple(level) if cross(*level) > 0 else tuple(reversed(level))
    meta = (("generator", "recursive"),
            ("t", str(spec.t)), ("depth", str(spec.depth)))
    return _self_validate(TilingPatch(tuple(tiles), region, meta),
                          "recursive split")


@dataclass(frozen=True, slots=True)
class TwoScaleSpec:
    """Periodic two-scale pattern: upward triangles of base b and height h
    in two staggered rows per cell, with half-scale downward triangles
    filling the gaps.  No two tiles share a side; every interior full-size
    side is covered by exactly two half-size sides."""

    b: Fraction
    h: Fraction
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.b <= 0 or self.h <= 0:
            raise GeneratorError("cell dimensions must be positive")
        if self.m < 1 or self.n < 1:
            raise GeneratorError("periods must be at least 1")


def gen_two_scale_periodic(spec: TwoScaleSpec) -> TilingPatch:
    b, h = spec.b, spec.h

    def tri(ox: Fraction, oy: Fraction, coords) -> Triangle:
        return Triangle(*(Point(ox + x, oy + y) for x, y in coords))

    up = ((F(0), F(0)), (b, F(0)), (b / 2, h))
    up_off = ((3 * b / 4, h / 2), (7 * b / 4, h / 2), (5 * b / 4, 3 * h / 2))
    # gap fillers: apex-down at half scale, two per strip per period
    down1 = ((3 * b / 4, h / 2), (5 * b / 4, h / 2), (b, F(0)))
    down2 = ((5 * b / 4, h / 2), (7 * b / 4, h / 2), (3 * b / 2, F(0)))
    shift = (3 * b / 4, h / 2)  # maps the lower strip onto the upper one

    def shifted(coords):
        return tuple((x + shift[0], y + shift[1]) for x, y in coords)

    tiles: list[Triangle] = []
    for j in range(spec.n):
        oy = h * j
        for i in range(spec.m):
            ox = 3 * b / 2 * i
            for coords in (up, up_off, down1, down2, shifted(down1)):
                tiles.append(tri(ox, oy, coords))
            # the second upper filler belongs to the cell on the left:
            # shifted one cell right it would dangle off the ragged edge
            tiles.append(tri(ox - 3 * b / 2, oy, shifted(down2)))

    meta = (("generator", "twoscale"), ("b", str(b)), ("h", str(h)),
            ("m", str(spec.m)), ("n", str(spec.n)))
    return _self_validate(TilingPatch(tuple(tiles), None, meta), "two-scale pattern")


def convex_polygon_on_circle(k: int, seed: int | None = None) -> tuple[Point, ...]:
    """A strictly convex CCW k-gon with exact rational vertices on the
    unit circle, via the rational parametrization t -> ((1-t^2), 2t)/(1+t^2).

    A seed jitters the angular spacing; the same seed reproduces the same
    polygon.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    rng = random.Random(seed)
    ts = []
    for i in range(k):
        jitter = rng.uniform(-0.3, 0.3) if seed is not None else 0.0
        theta = -math.pi + 2 * math.pi * (i + 0.5 + jitter) / k
        ts.append(F(math.tan(theta / 2)).limit_denominator(10 ** 6))
    pts = []
    for t in ts:
        den = 1 + t * t
        pts.append(Point((1 - t * t) / den, 2 * t / den))
    return tuple(pts)


def gen_convex_triangulation(vertices: tuple[Point, ...],
                             strategy: str = "random",
                             seed: int = 0) -> TilingPatch:
    """Triangulate a strictly convex CCW polygon.

    strategy "fan" fans from vertex 0; "random" recursively splits along
    seeded random diagonals, identical output for identical (vertices, seed).
    """
    k = len(vertices)
    if k < 3:
        raise GeneratorError("need at least 3 vertices")
    for i in range(k):
        if cross(vertices[i - 1], vertices[i], vertices[(i + 1) % k]) <= 0:
            raise GeneratorError("vertices must form a strictly convex CCW polygon")

    tiles: list[Triangle] = []
    if strategy == "fan":
        for i in range(1, k - 1):
            tiles.append(Triangle(vertices[0], vertices[i], vertices[i + 1]))
    elif strategy == "random":
        rng = random.Random(seed)

        def split(idx: list[int]) -> None:
            if len(idx) == 3:
                tiles.append(Triangle(*(vertices[i] for i in idx)))
                return
            n = len(idx)
            while True:
                i = rng.randrange(n)
                j = rng.randrange(n)
                if (j - i) % n >= 2 and (i - j) % n >= 2:
                    break
            i, j = min(i, j), max(i, j)
            split(idx[i:j + 1])
            split(idx[j:] + idx[:i + 1])

        split(list(range(k)))
    else:
        raise GeneratorError(f"unknown strategy {strategy!r}")

    meta = (("generator", "convex"), ("k", str(k)),
            ("strategy", strategy), ("seed", str(seed)))
    return _self_validate(TilingPatch(tuple(tiles), vertices, meta),
                          "convex triangulation")


def gen_reflected_pair(t: Triangle, kind: str) -> TilingPatch:
    """Two triangles on the common base t.a-t.b with equal area and
    perimeter: the apex of the second is the image of t.c under the
    requested base symmetry.

    "line" and "midpoint" give side-sharing disjoint pairs and carry a
    region; "bisector" keeps the apex on the same side of the base, so
    the tiles overlap and the patch is returned without a region (it is
    classifier test data, not a tiling).
    """
    x, y, z = t.a, t.b, t.c
    if kind == "line":
        zp = reflect_across_line(x, y, z)
    elif kind == "midpoint":
        zp = reflect_through_midpoint(x, y, z)
    elif kind == "bisector":
        zp = reflect_across_bisector(x, y, z)
    else:
        raise GeneratorError(f"unknown reflection kind {kind!r}")

    meta = (("generator", "pair"), ("kind", kind))
    if zp == z:
        # isoceles apex fixed by the bisector: the pair degenerates
        return TilingPatch((t, t), None, meta + (("degenerate", "identity"),))
    t2 = Triangle(x, y, zp)
    patch = TilingPatch((t, t2), None, meta)
    if kind in ("line", "midpoint"):
        return _self_validate(patch, "reflected pair")
    return patch
