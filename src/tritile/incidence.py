"""Incidence structure of a patch: vertices, atomic edges, per-line data.

The central object is the *edge soup*, built on the patch's integer grid
(:class:`tritile.model.Grid`): every triangle side is grouped by its
supporting line (primitive integer coefficients), split at every
vertex lying in its relative interior, and the resulting *atomic edges*
hold the soup's own records of the sides covering them, each with the
geometric side of the line its tile occupies.  Splitting uses only
endpoints of sides on the same line; in a valid tiling every vertex
interior to a side is such an endpoint (the tiles opposite the side must
terminate there), and for invalid input the soup still supports the
validator's certificate.

Each incidence fact has one owner.  :func:`build_soup` splits the sides
and records which sides each vertex subdivides; it does not class the
edges.  An edge is on the boundary iff one side covers it, and a boundary
edge is full iff that side spans it, partial otherwise.
:mod:`tritile.validate` certifies that the boundary edges form one simple
counterclockwise cycle and derives the region from it.  The
:class:`IncidenceGraph` wraps the validator's soup for a *valid* patch
and adds only the boundary edges and their vertices; every count (v, e,
v*, v_bd, e_full, e_part) is read from the soup or from those two.  It
is built once per patch and caches what later layers derive from it
(stretches, labels, eps2), so every audit takes just the graph.

Every point, position and line key in the soup and the graph is a grid
value; only the graph's ``region`` is rational (``outline`` is its grid form).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from typing import TYPE_CHECKING

from .geometry import Point, Triangle
from .model import TilingPatch
from .report import AuditRecord

if TYPE_CHECKING:
    from .radicals import LengthExpr
    from .stretches import SideLabel, Stretch
    from .validate import ValidationReport

LineKey = tuple[int, int, int]


def line_through(p: Point, q: Point) -> LineKey:
    """Primitive integer coefficients (A, B, C) of the line A*X + B*Y + C = 0
    through two grid points: gcd(A, B) = 1 and the first nonzero of A, B
    is positive, so the key is identical for every segment on the same
    undirected line."""
    a = q.y - p.y
    b = p.x - q.x
    g = math.gcd(a, b) if a > 0 or (a == 0 and b > 0) else -math.gcd(a, b)
    a, b = a // g, b // g
    return (a, b, -(a * p.x + b * p.y))


def line_pos(key: LineKey, p: Point) -> int:
    """Monotone position of a grid point along the line (X, or Y if vertical)."""
    return p.y if key[1] == 0 else p.x


def _line_order(keys) -> list[LineKey]:
    """The keys in the order of their rational forms (0, 1, C) and
    (1, B/A, C/A): by slope, compared exactly once per direction, then C."""
    def by_slope(u, v):
        d = u[1] * v[0] - v[1] * u[0]   # B/A of u minus B/A of v, times both A
        return (u[0] > 0) - (v[0] > 0) or (d > 0) - (d < 0)

    rank = {d: i for i, d in enumerate(sorted({k[:2] for k in keys}, key=cmp_to_key(by_slope)))}
    return sorted(keys, key=lambda k: (rank[k[:2]], k[2]))


@dataclass
class SideRef:
    """One triangle side on its supporting line, endpoints in line order."""

    tile: int
    index: int
    a: Point
    b: Point
    lo: int                         # positions: X, or Y on a vertical line
    hi: int
    sign: int                       # side of the line the tile occupies


@dataclass
class AtomicEdge:
    a: Point
    b: Point
    line: LineKey
    lo: int
    hi: int
    incidences: list[SideRef]       # the sides covering it; one on the boundary

    @property
    def tiles(self) -> list[int]:
        return [ref.tile for ref in self.incidences]


@dataclass
class LineGroup:
    key: LineKey
    sides: list[SideRef] = field(default_factory=list)
    edges: list[AtomicEdge] = field(default_factory=list)


@dataclass
class EdgeSoup:
    corner_tiles: dict[Point, list[int]]
    lines: dict[LineKey, LineGroup]     # in _line_order
    edges: list[AtomicEdge]
    # vertex -> sides whose relative interior contains it
    vertex_subdivides: dict[Point, list[tuple[int, int]]]


def build_soup(tiles: tuple[Triangle, ...]) -> EdgeSoup:
    """The edge soup of the tiles of a patch's grid."""
    corner_tiles: dict[Point, list[int]] = {}
    for i, t in enumerate(tiles):
        for p in t.vertices:
            corner_tiles.setdefault(p, []).append(i)

    groups: dict[LineKey, LineGroup] = {}
    for i, t in enumerate(tiles):
        verts = t.vertices
        for s in range(3):
            p, q, r = verts[s], verts[(s + 1) % 3], verts[(s + 2) % 3]
            key = line_through(p, q)
            grp = groups.setdefault(key, LineGroup(key))
            sgn = 1 if key[0] * r.x + key[1] * r.y + key[2] > 0 else -1
            kp, kq = line_pos(key, p), line_pos(key, q)
            if kp <= kq:
                grp.sides.append(SideRef(i, s, p, q, kp, kq, sgn))
            else:
                grp.sides.append(SideRef(i, s, q, p, kq, kp, sgn))

    lines = {key: groups[key] for key in _line_order(groups)}
    all_edges: list[AtomicEdge] = []
    vertex_subdivides: dict[Point, list[tuple[int, int]]] = {}
    for key, grp in lines.items():
        pts: dict[int, Point] = {}
        for ref in grp.sides:
            pts[ref.lo] = ref.a
            pts[ref.hi] = ref.b
        positions = sorted(pts)
        edge_map: dict[tuple[int, int], AtomicEdge] = {}
        for ref in grp.sides:
            i0 = bisect_right(positions, ref.lo)
            i1 = bisect_left(positions, ref.hi)
            cuts = positions[i0:i1]
            for c in cuts:
                vertex_subdivides.setdefault(pts[c], []).append((ref.tile, ref.index))
            seq = [ref.lo, *cuts, ref.hi]
            for u, w in zip(seq, seq[1:]):
                edge = edge_map.get((u, w))
                if edge is None:
                    edge = edge_map[(u, w)] = AtomicEdge(pts[u], pts[w], key, u, w, [])
                edge.incidences.append(ref)
        grp.edges = [edge_map[k] for k in sorted(edge_map)]
        all_edges.extend(grp.edges)

    return EdgeSoup(corner_tiles, lines, all_edges, vertex_subdivides)


@dataclass
class IncidenceGraph:
    """Vertex / atomic-edge structure of a validated patch."""

    patch: TilingPatch
    soup: EdgeSoup
    region: tuple[Point, ...]            # derived boundary polygon (CCW)
    outline: tuple[Point, ...]           # the same polygon on the grid
    boundary_edges: list[AtomicEdge]     # full and partial, in soup order
    boundary_vertices: set[Point]

    @property
    def tiles(self) -> tuple[Triangle, ...]:
        return self.patch.tiles

    @property
    def t(self) -> int:
        return len(self.patch.tiles)

    @property
    def v(self) -> int:
        return len(self.soup.corner_tiles)

    @property
    def e(self) -> int:
        return len(self.soup.edges)

    @property
    def f(self) -> int:
        return self.t + 1

    @property
    def v_bd(self) -> int:
        return len(self.boundary_vertices)

    @property
    def v_int(self) -> int:
        return self.v - self.v_bd

    @property
    def v_star(self) -> int:
        return len(self.soup.vertex_subdivides)

    @property
    def v_star_int(self) -> int:
        return sum(1 for p in self.soup.vertex_subdivides
                   if p not in self.boundary_vertices)

    @cached_property
    def e_full(self) -> int:
        """Boundary edges that their one side spans whole."""
        return sum(1 for e in self.boundary_edges
                   if (e.incidences[0].lo, e.incidences[0].hi) == (e.lo, e.hi))

    @property
    def e_part(self) -> int:
        return len(self.boundary_edges) - self.e_full

    @classmethod
    def from_report(cls, patch: TilingPatch, report: ValidationReport) -> IncidenceGraph:
        """Graph of a patch from its validation report, reusing its soup."""
        if not report.ok:
            raise ValueError(
                "invalid patch: " + "; ".join(v.describe() for v in report.violations))
        soup = report.soup
        boundary = [e for e in soup.edges if len(e.incidences) == 1]
        boundary_pts = {p for e in boundary for p in (e.a, e.b)}
        return cls(patch, soup, report.derived_region, report.outline, boundary, boundary_pts)

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Tiles sharing a positive-length boundary segment."""
        adj: dict[int, set[int]] = {i: set() for i in range(self.t)}
        for edge in self.soup.edges:
            if len(edge.incidences) == 2:
                t1, t2 = edge.tiles
                adj[t1].add(t2)
                adj[t2].add(t1)
        return adj

    @cached_property
    def incident_tiles(self) -> dict[Point, set[int]]:
        """Every tile whose closure contains the vertex (corner or mid-side)."""
        incident = {p: set(tiles) for p, tiles in self.soup.corner_tiles.items()}
        for p, sides in self.soup.vertex_subdivides.items():
            incident.setdefault(p, set()).update(t for t, _ in sides)
        return incident

    # Facts that tritile.stretches derives from the graph, computed once by
    # its public functions; callers share them and must not mutate them.

    @cached_property
    def decomposition(self) -> tuple[list[Stretch], list[tuple[int, int, tuple[Point, Point]]]]:
        """The stretches and the shared sides, as decompose_stretches gives them."""
        from .stretches import decompose_stretches
        return decompose_stretches(self)

    @cached_property
    def labels(self) -> dict[tuple[int, int], SideLabel]:
        from .stretches import side_labels
        return side_labels(self)

    @cached_property
    def eps2(self) -> LengthExpr:
        from .stretches import epsilon2
        return epsilon2(self.patch)

    @cached_property
    def composite_hops(self) -> list[int | None]:
        from .stretches import composite_hop_distances
        return composite_hop_distances(self)


def build_incidence(patch: TilingPatch) -> IncidenceGraph:
    """The incidence graph of a valid patch (ValueError if invalid), built
    once from the validator's own soup and cached on the patch."""
    return patch.incidence


def graph_audit(g: IncidenceGraph) -> AuditRecord:
    """Exact integer identities of the incidence structure.

    Checks, with both sides reported: Euler's formula, the face-edge
    double count, that no vertex subdivides more than one side, and that
    the boundary is accounted for by exactly v_bd atomic edges.
    """
    rec = AuditRecord("graph-audit")
    rec.info("t", g.t)
    rec.info("v", g.v)
    rec.info("e", g.e)
    rec.info("f", g.f)
    rec.info("v_bd", g.v_bd)
    rec.info("v_int", g.v_int)
    rec.info("v_star", g.v_star)
    rec.info("v_star_int", g.v_star_int)
    rec.info("e_full", g.e_full)
    rec.info("e_part", g.e_part)

    lhs, rhs = g.e, g.v + g.f - 2
    rec.check("euler", lhs == rhs, lhs, rhs)

    lhs, rhs = 2 * g.e, 3 * g.t + g.v_star + g.e_full + g.e_part
    rec.check("face_edge_count", lhs == rhs, lhs, rhs)

    worst = max(map(len, g.soup.vertex_subdivides.values()), default=0)
    rec.check("subdivides_at_most_one_side", worst <= 1, worst, 1)

    n_boundary = g.e_full + g.e_part
    rec.check("boundary_edges_equal_v_bd", n_boundary == g.v_bd, n_boundary, g.v_bd)
    return rec
