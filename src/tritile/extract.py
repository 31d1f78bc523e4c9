"""Disk restriction, hole filling, outer ring, and the boundary-effect
accounting audit on the extracted piece.

The disk is given by its squared radius so the open-disk intersection
predicate stays a rational comparison; the radius itself never needs to
materialize.  The predicates run on the ambient grid, the disk scaled into it.

Each step reads the ambient incidence graph: the holes are the tiles the
ambient boundary cannot reach through unselected tiles (one search over
``adjacency``), the ring is the tiles that share a vertex with the piece
(the soup's ``incident_tiles``), and connectivity is decided by the
piece's own validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point, Triangle, cross, segment_sq_dist, sq_dist
from .incidence import IncidenceGraph, build_incidence
from .model import TilingPatch
from .radicals import LengthExpr
from .report import AuditRecord
from .stretches import StretchClass
from .validate import derive_region, point_in_polygon


def triangle_sq_dist(t: Triangle, p: Point) -> Fraction:
    """Exact squared distance from p to the closed triangle."""
    if t.contains(p):
        return 0
    return min(segment_sq_dist(a, b, p) for a, b in t.sides())


def _box_sq_dist(t: Triangle, p: Point) -> Fraction:
    """Exact squared distance from p to the bounding box of the triangle,
    a lower bound on the distance to the triangle, which lies inside it."""
    xs = (t.a.x, t.b.x, t.c.x)
    ys = (t.a.y, t.b.y, t.c.y)
    dx = max(min(xs) - p.x, p.x - max(xs), 0)
    dy = max(min(ys) - p.y, p.y - max(ys), 0)
    return dx * dx + dy * dy


def restrict_to_disk(ambient: TilingPatch, center: Point, r_sq: Fraction) -> set[int]:
    """Tiles whose closed set meets the open disk of squared radius r_sq.
    A tile whose bounding box misses the disk is skipped without the exact
    triangle distance."""
    if r_sq <= 0:
        raise ValueError("r_sq must be positive")
    grid = ambient.grid
    center, r_sq = grid.of(center), r_sq * grid.scale ** 2
    return {i for i, t in enumerate(grid.tiles)
            if _box_sq_dist(t, center) < r_sq and triangle_sq_dist(t, center) < r_sq}


def fill_holes(ambient: TilingPatch, selected: set[int]) -> TilingPatch:
    """Add every ambient tile lying in a bounded complementary component
    of the selected union; the result is simply connected.

    A tile stays out of the piece when the ambient boundary reaches it
    through unselected tiles sharing a side; every other tile is in.  The
    piece comes back without a region, validated once, and that is the
    only connectivity check: RegionError (a ValueError) unless the piece
    is one simple polygon, with kind DISCONNECTED when it falls apart into
    parts with no common point, pinched or not, and NOT_SIMPLE when it is
    one pinched piece.
    ``build_incidence(piece)`` reuses the report, and its ``region`` is
    the piece's boundary.
    """
    if not selected:
        raise ValueError("empty selection")
    if not selected <= set(range(len(ambient.tiles))):
        raise ValueError("selection is not a subset of the ambient patch")
    graph = build_incidence(ambient)
    adj = graph.adjacency
    outside = {e.incidences[0].tile for e in graph.boundary_edges} - selected
    stack = list(outside)
    while stack:
        for w in adj[stack.pop()]:
            if w not in selected and w not in outside:
                outside.add(w)
                stack.append(w)
    piece = TilingPatch(tuple(t for i, t in enumerate(ambient.tiles) if i not in outside),
                        None, ambient.metadata)
    derive_region(piece)  # validates the piece once; RegionError if not simple
    return piece


def boundary_ring(ambient: TilingPatch, patch: TilingPatch) -> list[int]:
    """Ambient tiles outside the patch that share a vertex with it (corner
    or mid-side), which in a tiling is every tile whose closure touches it."""
    index = {t: i for i, t in enumerate(ambient.grid.tiles)}
    inside = {index.get(Triangle(*map(ambient.grid.of, t.vertices))) for t in patch.tiles}
    if None in inside:
        raise ValueError("patch is not a tile subset of the ambient patch")
    ring = {t for tiles in build_incidence(ambient).soup.incident_tiles.values()
            if not tiles.isdisjoint(inside) for t in tiles} - inside
    return sorted(ring)


@dataclass
class ExtractionResult:
    patch: TilingPatch
    ring: list[int]
    center: Point
    r_sq: Fraction
    coverage_certificate: bool
    e_full: int
    e_part: int

    @property
    def t_count(self) -> int:
        return len(self.patch.tiles)


def _disk_plus_one_covered(graph: IncidenceGraph, center: Point, r_sq: Fraction) -> bool:
    """Does the ambient region contain the concentric disk of radius r+1?

    Exact test: sq >= r_sq + 1 + 2*sqrt(r_sq) for the squared distance sq
    of every ambient boundary edge, plus the center lying in the region.
    """
    grid = graph.patch.grid
    center, r_sq, one = grid.of(center), r_sq * grid.scale ** 2, grid.scale ** 2  # on the grid
    if point_in_polygon(center, graph.outline) < 0:
        return False
    for e in graph.boundary_edges:
        sq = segment_sq_dist(e.a, e.b, center)
        rest = sq - r_sq - one
        if rest < 0 or rest * rest < 4 * r_sq * one:
            return False
    return True


def extract_disk_patch(ambient: TilingPatch, center: Point, r_sq: Fraction) -> ExtractionResult:
    """Restrict to the disk, fill holes, and find the outer ring."""
    graph = build_incidence(ambient)
    selected = restrict_to_disk(ambient, center, r_sq)
    if not selected:
        raise ValueError("disk does not meet the patch")
    patch = fill_holes(ambient, selected)
    ring = boundary_ring(ambient, patch)
    sub = build_incidence(patch)
    return ExtractionResult(patch, ring, center, r_sq,
                            _disk_plus_one_covered(graph, center, r_sq),
                            sub.e_full, sub.e_part)


def asymptotic_audit(patch: TilingPatch, ring: list[int], *, unit_perimeter: bool = False,
                     coverage_certificate: bool = False,
                     r_sq: Fraction | None = None) -> AuditRecord:
    """Boundary-effect accounting on a finite piece.

    Exact checks: the side count identity 3t - e_full = 3*sigma + L_loose,
    the subdividing-vertex bound v* >= sigma + L_loose/2 (both n/a when
    shared sides are present), the boundary bound e_full * min_side <=
    boundary length, and e_part <= 3t'.  The last one rests on every
    boundary vertex belonging to a ring triangle, which fails when the
    piece reaches the edge of the known tiling, so a violation downgrades
    to n/a unless ``coverage_certificate`` is True, which says the grown
    disk is covered (False, the default, says nothing is known).
    Tile sides are read off the grid's ``side_squares``; the boundary
    length sums the boundary edges, which may be parts of sides.
    """
    rec = AuditRecord("asymptotic-audit")
    g = build_incidence(patch)
    stretches, shared = g.decomposition
    sigma = sum(1 for s in stretches if s.klass is StretchClass.TIGHT)
    loose = sum(s.size for s in stretches if s.klass is not StretchClass.TIGHT)
    t = g.t
    t_prime = len(ring)
    eps2 = g.eps2

    grid = patch.grid
    dd = grid.scale ** 2
    twice_areas = [cross(*tile.vertices) for tile in grid.tiles]
    min_side_sq = Fraction(min(map(min, grid.side_squares)), dd)
    min_area = Fraction(min(twice_areas), 2 * dd)
    boundary_len = LengthExpr.sum(grid.length(sq_dist(e.a, e.b)) for e in g.boundary_edges)

    rec.info("t", t)
    rec.info("t_prime", t_prime)
    rec.info("e_full", g.e_full)
    rec.info("e_part", g.e_part)
    rec.info("sigma_tight", sigma)
    rec.info("L_loose", loose)
    rec.info("v_star", g.v_star)
    rec.info("min_area", min_area)
    rec.info("min_side_sq", min_side_sq)
    rec.info("epsilon2", f"{eps2!r} (~{eps2.decimal_str()})")
    rec.info("boundary_length", f"~{boundary_len.decimal_str()}")
    if r_sq is not None:
        rec.info("t_over_r_sq", Fraction(t) / r_sq)
        rec.info("t_prime_sq_over_r_sq", Fraction(t_prime ** 2) / r_sq)

    if shared:
        rec.not_applicable("side_count_identity", "patch has shared sides")
        rec.not_applicable("subdividing_vertex_bound", "patch has shared sides")
    else:
        lhs, rhs = 3 * t - g.e_full, 3 * sigma + loose
        rec.check("side_count_identity", lhs == rhs, lhs, rhs)
        lhs, rhs = 2 * g.v_star, 2 * sigma + loose
        rec.check("subdividing_vertex_bound", lhs >= rhs, lhs, rhs)

    min_side = LengthExpr.sqrt(min_side_sq)
    rec.check("full_boundary_bound", min_side * g.e_full <= boundary_len,
              f"{g.e_full}*min_side", f"~{boundary_len.decimal_str()}")

    part_ok = g.e_part <= 3 * t_prime
    if part_ok:
        rec.check("partial_boundary_bound", True, g.e_part, 3 * t_prime)
    elif coverage_certificate:
        rec.check("partial_boundary_bound", False, g.e_part, 3 * t_prime)
    else:
        rec.not_applicable(
            "partial_boundary_bound",
            f"{g.e_part} > {3 * t_prime} but the ring is truncated by the ambient boundary")

    if unit_perimeter:
        one = LengthExpr.rational(1)
        perims_ok = all(LengthExpr.sum(map(grid.length, sqs)) == one for sqs in grid.side_squares)
        rec.check("unit_perimeter", perims_ok)
        # every side longer than four times the smallest area
        side_ok = min_side_sq > 16 * min_area * min_area
        rec.check("side_exceeds_4_min_area", side_ok,
                  min_side_sq, 16 * min_area * min_area)
        # areas at most sqrt(3)/36, squared to stay rational
        worst = Fraction(max(twice_areas), 2 * dd)
        rec.check("area_at_most_equilateral", 1296 * worst * worst <= 3,
                  1296 * worst * worst, 3)
        unit_lhs = 4 * g.e_full * min_area
        if unit_lhs <= t_prime:
            rec.check("full_boundary_bound_unit", True, unit_lhs, t_prime)
        elif coverage_certificate:
            rec.check("full_boundary_bound_unit", False, unit_lhs, t_prime)
        else:
            rec.not_applicable("full_boundary_bound_unit",
                               "ring truncated by the ambient boundary")
    return rec
