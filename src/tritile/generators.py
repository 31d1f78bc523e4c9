"""Exact constructions of the test-corpus tiling families.

Every generator self-validates its output, once, and raises
:class:`GeneratorError` instead of returning a broken patch.  The
recursive split and the two-scale pattern count on an integer lattice and
hand its int rows to :meth:`TilingPatch.from_grid`, so no `Fraction` is
built per point; the convex family hands it its vertices put on the grid
by `to_grid`, and the pair family builds a patch from its two rational
triangles.  Seeded draws read only `random()`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .geometry import (Point, Triangle, cross, is_convex, reflect_across_bisector,
                       reflect_across_line, reflect_through_midpoint)
from .model import Grid, TilingPatch, to_grid


class GeneratorError(ValueError):
    pass


def _self_validate(patch: TilingPatch, what: str) -> TilingPatch:
    """Validate once.  A patch without a region becomes its grid tiles with
    the outline the validator found as their region, and keeps this report,
    its graph re-pointed at it (validating it gives an equal report)."""
    report = patch.validation
    if not report.ok:
        raise GeneratorError(
            f"{what} produced an invalid patch: "
            + "; ".join(v.describe() for v in report.violations))
    grid = patch.grid
    if grid.region is not None:
        return patch
    with_region = TilingPatch.wrap(Grid(grid.scale, grid.tiles, report.graph.outline), patch.metadata)
    with_region.__dict__["validation"] = replace(
        report, graph=replace(report.graph, patch=with_region))
    return with_region


@dataclass(frozen=True, slots=True)
class RecursiveSplitSpec:
    """Triangle-in-triangle subdivision: each level wraps the previous
    one in three slivers, giving 3*depth + 1 tiles and no shared sides."""

    base: tuple[Point, Point, Point]
    t: Fraction
    depth: int

    def __post_init__(self) -> None:
        if cross(*self.base) == 0:
            raise GeneratorError("base triangle is degenerate")
        if cross(*self.base) < 0:
            raise GeneratorError("base triangle must be counterclockwise")
        if self.t <= 1:
            raise GeneratorError("expansion factor must exceed 1")
        if self.depth < 0:
            raise GeneratorError("depth must be nonnegative")


def gen_recursive_split(spec: RecursiveSplitSpec) -> TilingPatch:
    """Level k+1 vertex i sits on the line through level-k vertices i+1, i:
    w_i = v_{i+1} + t*(v_i - v_{i+1}).  Each sliver (w_i, w_{i+1}, v_{i+1})
    therefore has a side collinear with a side of the inner triangle, which
    is what keeps every stretch tight.

    With t = p/q, the levels are counted on the lattice of the last one:
    the base's common denominator times q**depth, so every step
    (v_i - v_{i+1}) * p / q is an exact int division."""
    p, q = spec.t.numerator, spec.t.denominator
    scale, ints = to_grid(*(c for v in spec.base for c in v))
    scale, ints = scale * q ** spec.depth, [c * q ** spec.depth for c in ints]
    level = list(zip(ints[::2], ints[1::2]))
    rows = [[c for v in level for c in v]]
    for _ in range(spec.depth):
        nxt = [(bx + (ax - bx) * p // q, by + (ay - by) * p // q)
               for (ax, ay), (bx, by) in zip(level, level[1:] + level[:1])]
        rows += [[*nxt[i], *nxt[i - 2], *level[i - 2]] for i in range(3)]
        level = nxt

    region = level if cross(*(Point(*v) for v in level)) > 0 else level[::-1]
    meta = (("generator", "recursive"),
            ("t", str(spec.t)), ("depth", str(spec.depth)))
    return _self_validate(TilingPatch.from_grid(scale, rows, [c for v in region for c in v], meta),
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
    """Counted in units of b/4 across and h/2 up, on the grid of their
    common denominator."""
    b, h = spec.b, spec.h
    scale, (ux, uy) = to_grid(b / 4, h / 2)

    up = (0, 0, 4, 0, 2, 2)
    up_off = (3, 1, 7, 1, 5, 3)
    # gap fillers: apex-down at half scale, two per strip per period
    down1 = (3, 1, 5, 1, 4, 0)
    down2 = (5, 1, 7, 1, 6, 0)

    def shifted(row, dx=0):  # maps the lower strip onto the upper one
        return tuple(c + d for c, d in zip(row, (3 + dx, 1) * 3))

    # the second upper filler belongs to the cell on the left:
    # shifted one cell right it would dangle off the ragged edge
    cell = [tuple(c * u for c, u in zip(row, (ux, uy) * 3))
            for row in (up, up_off, down1, down2, shifted(down1), shifted(down2, -6))]
    rows = [(x1 + dx, y1 + dy, x2 + dx, y2 + dy, x3 + dx, y3 + dy)
            for dy in range(0, 2 * uy * spec.n, 2 * uy) for dx in range(0, 6 * ux * spec.m, 6 * ux)
            for x1, y1, x2, y2, x3, y3 in cell]

    meta = (("generator", "twoscale"), ("b", str(b)), ("h", str(h)),
            ("m", str(spec.m)), ("n", str(spec.n)))
    return _self_validate(TilingPatch.from_grid(scale, rows, None, meta), "two-scale pattern")


def _draw(rng: random.Random, n: int) -> int:
    """floor(i * n / 2**53) in range(n), for the exact i / 2**53 of one ``rng.random()``."""
    return int(rng.random() * 2 ** 53) * n >> 53


def convex_polygon_on_circle(k: int, seed: int | None = None) -> tuple[Point, ...]:
    """A strictly convex CCW k-gon with exact rational vertices on the
    unit circle: vertex i at angle 4 atan(j/m), m = 10k, j = 20i + 10 - m,
    by the rational parametrization t -> ((1-t^2), 2t)/(1+t^2) of the
    half-angle tangent t = b/a, a = m^2 - j^2, b = 2jm.

    A seed moves each j by up to 6 of the 20 steps per vertex; the same
    seed reproduces the same polygon.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    rng = random.Random(seed)
    m = 10 * k
    pts = []
    for i in range(k):
        j = 20 * i + 10 - m + (_draw(rng, 13) - 6 if seed is not None else 0)
        a, b = m * m - j * j, 2 * j * m
        pts.append(Point(Fraction(a * a - b * b, a * a + b * b), Fraction(2 * a * b, a * a + b * b)))
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
    if not is_convex(vertices):
        raise GeneratorError("vertices must form a strictly convex CCW polygon")

    if strategy == "fan":
        triples = [(0, i, i + 1) for i in range(1, k - 1)]
    elif strategy == "random":
        rng = random.Random(seed)
        triples = []

        def split(idx: list[int]) -> None:
            n = len(idx)
            if n == 3:
                triples.append(idx)
                return
            i = _draw(rng, n)
            j = (i + 2 + _draw(rng, n - 3)) % n  # one of the n - 3 corners not next to i
            i, j = min(i, j), max(i, j)
            split(idx[i:j + 1])
            split(idx[j:] + idx[:i + 1])

        split(list(range(k)))
    else:
        raise GeneratorError(f"unknown strategy {strategy!r}")

    scale, ints = to_grid(*(c for v in vertices for c in v))
    rows = [[ints[c] for i in triple for c in (2 * i, 2 * i + 1)] for triple in triples]
    meta = (("generator", "convex"), ("k", str(k)),
            ("strategy", strategy), ("seed", str(seed)))
    return _self_validate(TilingPatch.from_grid(scale, rows, ints, meta), "convex triangulation")


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
        meta += (("degenerate", "identity"),)
    patch = TilingPatch((t, Triangle(x, y, zp)), None, meta)
    if kind in ("line", "midpoint"):
        return _self_validate(patch, "reflected pair")
    return patch
