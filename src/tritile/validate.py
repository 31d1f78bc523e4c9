"""Patch validation: certify that a tile set is a genuine tiling.

Coverage and disjointness are certified combinatorially, not by polygon
booleans: every atomic edge must be matched by exactly two tiles on
opposite sides (or lie on the region boundary), the unmatched edges must
chain into a single, geometrically simple, counterclockwise cycle, and
the tile areas must sum to the area that cycle encloses.  For a closed
1-chain those conditions force every interior point to be covered exactly
once, so they detect overlaps, gaps, holes and pinched or disconnected
unions without any floating point.

Geometric simplicity (of a stated region and of the derived boundary) is
decided by one x-ordered sweep, `_simplicity_faults`: a sort, one box
comparison per pair of segments, or of segment and vertex, whose x-ranges
overlap, and one exact test per pair whose boxes overlap, instead of a
test for every pair.  It lists every crossing, at its exact point, and
every contact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .geometry import Point, cross, point_on_segment_interior, twice_area
from .incidence import AtomicEdge, EdgeSoup, IncidenceGraph, build_soup, line_through, line_pos
from .model import Grid, TilingPatch

OVERLAP = "OVERLAP"
UNMATCHED_EDGE = "UNMATCHED_EDGE"
HOLE = "HOLE"
DISCONNECTED = "DISCONNECTED"
NOT_SIMPLE = "NOT_SIMPLE"
AREA_MISMATCH = "AREA_MISMATCH"
REGION_MISMATCH = "REGION_MISMATCH"
REGION_INVALID = "REGION_INVALID"
EMPTY = "EMPTY"


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    tiles: tuple[int, ...]
    detail: str

    def describe(self) -> str:
        if self.tiles:
            return f"{self.kind} tiles={list(self.tiles)} {self.detail}"
        return f"{self.kind} {self.detail}"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]
    outline: tuple[Point, ...] | None    # the derived boundary polygon, on the grid
    grid: Grid | None = field(default=None, repr=False)
    # a valid patch's incidence graph, on the soup the checks ran on
    graph: IncidenceGraph | None = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ValidationReport) and (
            (self.ok, self.violations, self.derived_region)
            == (other.ok, other.violations, other.derived_region))

    @cached_property
    def derived_region(self) -> tuple[Point, ...] | None:
        """The derived boundary polygon (CCW), rational, made on first read."""
        return None if self.outline is None else tuple(map(self.grid.point, self.outline))

    def render(self) -> str:
        lines = [f"valid = {'yes' if self.ok else 'no'}"]
        for v in self.violations:
            lines.append(f"violation: {v.describe()}")
        if self.outline is not None:
            lines.append(f"boundary_vertices = {len(self.outline)}")
        return "\n".join(lines) + "\n"


class RegionError(ValueError):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def elide_collinear(poly: tuple[Point, ...]) -> tuple[Point, ...]:
    """Drop vertices where the polygon does not change direction."""
    n = len(poly)
    kept = [p for i, p in enumerate(poly)
            if cross(poly[i - 1], p, poly[(i + 1) % n]) != 0]
    return tuple(kept)


def canonical_polygon(poly: tuple[Point, ...]) -> tuple[Point, ...]:
    """Collinear vertices elided, rotated to start at the smallest vertex."""
    poly = elide_collinear(poly)
    if not poly:
        return poly
    start = poly.index(min(poly))
    return poly[start:] + poly[:start]


def point_in_polygon(p: Point, poly: tuple[Point, ...]) -> int:
    """1 inside, 0 on the boundary, -1 outside (exact winding count)."""
    wn = 0
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if p == a or p == b or point_on_segment_interior(a, b, p):
            return 0
        if a.y <= p.y < b.y and cross(a, b, p) > 0:
            wn += 1
        elif b.y <= p.y < a.y and cross(a, b, p) < 0:
            wn -= 1
    return 1 if wn != 0 else -1


def _proper_crossing(p: Point, q: Point, r: Point, s: Point) -> Point | None:
    """The point where segments pq and rs cross properly (each has its
    endpoints strictly on opposite sides of the other's line), else None.
    The point is exact: p + (q - p) * o3 / (o3 - o4)."""
    o1 = cross(p, q, r)
    o2 = cross(p, q, s)
    if o1 == 0 or o2 == 0 or (o1 > 0) == (o2 > 0):
        return None
    o3 = cross(r, s, p)
    o4 = cross(r, s, q)
    if o3 == 0 or o4 == 0 or (o3 > 0) == (o4 > 0):
        return None
    return p + (q - p).scale(Fraction(o3, o3 - o4))


def _simplicity_faults(segments: list[tuple[Point, Point]]
                       ) -> tuple[list[tuple[int, int, Point]], list[tuple[int, Point]]]:
    """Why a closed chain of segments is not a simple polygon: the triples
    (i, j, x), i < j, of segments that cross properly at x, in (i, j)
    order, and the pairs (i, p) of a segment and an endpoint inside it,
    in (i, p) order.

    An x-ordered sweep finds both: each segment, in order of left end,
    meets only the later ones that start at or before its right end, and
    each segment meets only the vertices bisected from the key-sorted list
    by its x-range.  The cost is a sort plus one comparison per pair with
    overlapping x-ranges; the exact predicates run only where the y-ranges
    overlap too.
    """
    boxes = [(min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y))
             for a, b in segments]
    order = sorted(range(len(segments)), key=lambda k: boxes[k][0])
    crossings: list[tuple[int, int, Point]] = []
    for pos, i in enumerate(order):
        _, xmax, ymin, ymax = boxes[i]
        for k in range(pos + 1, len(order)):
            j = order[k]
            xmin_j, _, ymin_j, ymax_j = boxes[j]
            if xmin_j > xmax:
                break
            if ymin_j > ymax or ymax_j < ymin:
                continue
            lo, hi = min(i, j), max(i, j)
            x = _proper_crossing(*segments[lo], *segments[hi])
            if x is not None:
                crossings.append((lo, hi, x))
    crossings.sort(key=lambda c: c[:2])

    vertices = sorted({p for seg in segments for p in seg})
    xs = [p.x for p in vertices]
    contacts: list[tuple[int, Point]] = []
    for i, (a, b) in enumerate(segments):
        xmin, xmax, ymin, ymax = boxes[i]
        for p in vertices[bisect_left(xs, xmin):bisect_right(xs, xmax)]:
            if (ymin <= p.y <= ymax and p != a and p != b
                    and point_on_segment_interior(a, b, p)):
                contacts.append((i, p))
    return crossings, contacts


def _directed_boundary(edge: AtomicEdge) -> tuple[Point, Point]:
    """Orient a boundary edge so its unique tile lies on the left."""
    a, b, key = edge.a, edge.b, edge.line
    sgn = edge.incidences[0].sign
    d = b - a
    left_normal_dot = -d.y * key[0] + d.x * key[1]
    return (a, b) if (sgn > 0) == (left_normal_dot > 0) else (b, a)


def _walk_boundary(boundary: list[AtomicEdge], pt) -> tuple[list[list[Point]], list[Violation]]:
    """The boundary cycles, or none and a NOT_SIMPLE violation for each
    vertex without exactly one boundary edge in and one out."""
    out_map: dict[Point, list[Point]] = {}
    in_count: dict[Point, int] = {}
    for edge in boundary:
        a, b = _directed_boundary(edge)
        out_map.setdefault(a, []).append(b)
        in_count[b] = in_count.get(b, 0) + 1
        out_map.setdefault(b, [])

    pinched = [Violation(NOT_SIMPLE, (),
                         f"boundary pinched at {pt(p)} (out={len(out_map[p])}, in={in_count.get(p, 0)})")
               for p in sorted(out_map)
               if len(out_map[p]) != 1 or in_count.get(p, 0) != 1]
    if pinched:
        return [], pinched

    cycles: list[list[Point]] = []
    visited: set[Point] = set()
    for start in sorted(out_map):
        if start in visited:
            continue
        cyc = [start]
        visited.add(start)
        cur = out_map[start][0]
        while cur != start:
            cyc.append(cur)
            visited.add(cur)
            cur = out_map[cur][0]
        cycles.append(cyc)
    return cycles, []


def _check_region_polygon(region: tuple[Point, ...], pt) -> list[Violation]:
    bad: list[Violation] = []
    n = len(region)
    if n < 3:
        return [Violation(REGION_INVALID, (), "fewer than 3 vertices")]
    if len(set(region)) != n:
        return [Violation(REGION_INVALID, (), "repeated vertex")]
    if twice_area(region) <= 0:
        bad.append(Violation(REGION_INVALID, (), "not counterclockwise"))
    sides = [(region[i], region[(i + 1) % n]) for i in range(n)]
    crossings, contacts = _simplicity_faults(sides)
    for i, j, _ in crossings:
        bad.append(Violation(REGION_INVALID, (), f"sides {i} and {j} cross"))
    for i, p in sorted(contacts, key=lambda c: (region.index(c[1]), c[0])):
        bad.append(Violation(REGION_INVALID, (), f"vertex {pt(p)} inside side {i}"))
    return bad


def _region_line_spans(region: tuple[Point, ...]):
    """Per-line intervals of the sides of a canonical region, as (hi, lo)
    in order: collinear neighbours are fused, and non-adjacent sides of a
    simple polygon never touch, so the intervals on a line are disjoint and
    each boundary edge lies inside one of them or none."""
    spans: dict = {}
    n = len(region)
    for i in range(n):
        a, b = region[i], region[(i + 1) % n]
        key = line_through(a, b)
        ka, kb = line_pos(key, a), line_pos(key, b)
        spans.setdefault(key, []).append((max(ka, kb), min(ka, kb)))
    for line in spans.values():
        line.sort()
    return spans


def _within(spans, lo: int, hi: int) -> bool:
    """Whether [lo, hi] lies inside one of the disjoint (hi, lo) spans, in
    order: the first span that reaches hi is the only one that can hold it."""
    i = bisect_left(spans, (hi,))
    return i < len(spans) and spans[i][1] <= lo


def _count_parts(n: int, groups) -> int:
    """Classes of the tiles 0..n-1 when each group joins its tiles."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for first, *rest in groups:
        for j in rest:
            root[find(j)] = find(first)
    return sum(root[i] == i for i in range(n))


def validate_patch(patch: TilingPatch) -> ValidationReport:
    """Run every validity check, on the patch's grid, and report all
    violations found, each point in them divided back by ``grid.point``,
    and a valid patch's incidence graph."""
    violations: list[Violation] = []
    grid = patch.grid
    if not grid.tiles:
        return ValidationReport(False, [Violation(EMPTY, (), "patch has no tiles")], None)
    pt = grid.point

    # the stated region in canonical form, if it is a valid polygon
    canonical: tuple[Point, ...] | None = None
    if grid.region is not None:
        region_problems = _check_region_polygon(grid.region, pt)
        violations.extend(region_problems)
        if not region_problems:
            canonical = canonical_polygon(grid.region)

    soup = build_soup(grid.tiles)

    region_spans = _region_line_spans(canonical) if canonical is not None else None
    boundary: list[AtomicEdge] = []
    for edge in soup.edges:
        n = len(edge.incidences)
        if n > 2:
            violations.append(Violation(
                OVERLAP, tuple(sorted(edge.tiles)),
                f"{n} sides stacked on edge {pt(edge.a)}-{pt(edge.b)}"))
        elif n == 2:
            if edge.incidences[0].sign == edge.incidences[1].sign:
                violations.append(Violation(
                    OVERLAP, tuple(sorted(edge.tiles)),
                    f"tiles on the same side of edge {pt(edge.a)}-{pt(edge.b)}"))
        else:
            boundary.append(edge)
            if region_spans is not None and not _within(region_spans.get(edge.line, ()),
                                                        edge.lo, edge.hi):
                violations.append(Violation(
                    UNMATCHED_EDGE, tuple(edge.tiles),
                    f"edge {pt(edge.a)}-{pt(edge.b)} borders one tile off the region boundary"))

    cycles, pinched = _walk_boundary(boundary, pt)
    violations.extend(pinched)
    geometric, joined = _geometric_boundary_checks(boundary, soup, pt)
    violations.extend(geometric)

    outline: tuple[Point, ...] | None = None
    nested: list[list[Point]] = []
    if not pinched and not geometric and cycles:
        areas = [twice_area(c) for c in cycles]
        if len(cycles) == 1:
            outline = canonical_polygon(tuple(cycles[0]))
        else:
            positive = [c for c, ar in zip(cycles, areas) if ar > 0]
            for c, ar in zip(cycles, areas):
                if ar <= 0:
                    violations.append(Violation(
                        HOLE, (), f"interior boundary cycle through {pt(c[0])}"))
            if len(positive) > 1:
                # a component is nested iff the cycles around its first
                # vertex, +1 for each outer and -1 for each hole, do not cancel
                nested = [ci for ci in positive
                          if sum((1 if ar > 0 else -1) for cj, ar in zip(cycles, areas)
                                 if cj is not ci and point_in_polygon(ci[0], tuple(cj)) >= 0)]
                violations.extend(
                    Violation(OVERLAP, (), f"component through {pt(ci[0])} nested inside another")
                    for ci in nested)

    if outline is None and not nested:
        # parts with no common point: tiles are joined by a shared vertex
        # (a corner, or a corner inside a side), by crossing edges and by
        # a corner touching an edge
        parts = _count_parts(len(grid.tiles), [*soup.incident_tiles.values(), *joined])
        if parts > 1:
            violations.append(Violation(DISCONNECTED, (), f"{parts} separate components"))

    if outline is not None:
        tiles2, enclosed2 = sum(cross(*t.vertices) for t in grid.tiles), twice_area(outline)
        if tiles2 != enclosed2:
            violations.append(Violation(
                AREA_MISMATCH, (),
                f"tile areas sum to {Fraction(tiles2, 2 * grid.scale ** 2)}, "
                f"boundary encloses {Fraction(enclosed2, 2 * grid.scale ** 2)}"))
        if canonical is not None and canonical != outline:
            violations.append(Violation(
                REGION_MISMATCH, (), "derived boundary differs from region"))

    graph = None if violations else IncidenceGraph(
        patch, soup, outline, boundary, {p for e in boundary for p in (e.a, e.b)})
    return ValidationReport(not violations, violations, outline, grid, graph)


def _geometric_boundary_checks(boundary: list[AtomicEdge], soup: EdgeSoup, pt
                               ) -> tuple[list[Violation], list[list[int]]]:
    """Reject boundary cycles that are simple combinatorially but not
    geometrically: crossing edges mean overlapping tiles, a vertex inside
    an edge means a pinched region.  Also returns, per fault, the tiles
    that it shows to have a common point."""
    crossings, contacts = _simplicity_faults([(e.a, e.b) for e in boundary])
    bad: list[Violation] = []
    joined: list[list[int]] = []
    for i, j, x in crossings:
        tiles = boundary[i].tiles + boundary[j].tiles
        joined.append(tiles)
        bad.append(Violation(
            OVERLAP, tuple(sorted(set(tiles))), f"boundary edges cross at {pt(x)}"))
    for i, p in contacts:
        joined.append(boundary[i].tiles + soup.corner_tiles[p])
        bad.append(Violation(
            NOT_SIMPLE, tuple(boundary[i].tiles),
            f"boundary touches itself at {pt(p)}"))
    return bad, joined


def derive_region(patch: TilingPatch) -> tuple[Point, ...]:
    """Counterclockwise boundary polygon of the tile union, read off the
    patch's cached ``patch.validation``; the violations of a stated region
    (REGION_INVALID, REGION_MISMATCH, UNMATCHED_EDGE) do not count.

    Raises :class:`RegionError` when the union is not a simply connected
    polygon (hole, disconnection, pinch, or overlap).
    """
    report = patch.validation
    others = [v for v in report.violations
              if v.kind not in (REGION_INVALID, REGION_MISMATCH, UNMATCHED_EDGE)]
    if report.derived_region is None or others:
        kinds = {v.kind for v in others}
        kind = next((k for k in (HOLE, DISCONNECTED, NOT_SIMPLE, OVERLAP, EMPTY) if k in kinds),
                    NOT_SIMPLE)
        raise RegionError(kind, "; ".join(v.describe() for v in others))
    return report.derived_region
