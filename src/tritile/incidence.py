"""Incidence structure of a patch: vertices, atomic edges, per-line data.

The central object is the *edge soup*: every triangle side is grouped by
its supporting line (normalized rational coefficients), split at every
vertex lying in its relative interior, and the resulting *atomic edges*
carry the list of incident tile sides together with which geometric side
of the line each tile occupies.  Splitting uses only endpoints of sides
on the same line; in a valid tiling every vertex interior to a side is
such an endpoint (the tiles opposite the side must terminate there), and
for invalid input the soup still supports the validator's certificate.

Each boundary fact has one owner.  :func:`build_soup` classes each atomic
edge as it splits the sides: internal when shared, else full or partial
boundary as its one side is unsplit or split.  :mod:`tritile.validate`
certifies that the boundary edges form one simple counterclockwise cycle
and derives the region from it.  The :class:`IncidenceGraph` wraps the
validator's soup for a *valid* patch, lists the boundary edges once, and
exposes the counts (vertex/edge/face counts, e_full, e_part, subdividing
vertices) and the vertex-to-tiles map that the audits and the disk
extraction consume.  It is built once per patch and caches what later
layers derive from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .geometry import Point, Triangle
from .model import TilingPatch
from .report import AuditRecord

if TYPE_CHECKING:
    from .radicals import LengthExpr
    from .stretches import SideLabel, Stretch
    from .validate import ValidationReport

LineKey = tuple[Fraction, Fraction, Fraction]


def line_through(p: Point, q: Point) -> LineKey:
    """Normalized coefficients (A, B, C) of the line A*x + B*y + C = 0.

    The leading nonzero coefficient of (A, B) is scaled to 1, so the key
    is identical for every segment on the same undirected line.
    """
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    if a != 0:
        return (Fraction(1), b / a, c / a)
    return (Fraction(0), Fraction(1), c / b)


def line_eval(key: LineKey, p: Point) -> Fraction:
    return key[0] * p.x + key[1] * p.y + key[2]


def line_pos(key: LineKey, p: Point) -> Fraction:
    """Monotone position of a point along the line (x, or y if vertical)."""
    if key[0] == 1 and key[1] == 0:
        return p.y
    return p.x


class EdgeClass(Enum):
    INTERNAL = "internal"
    FULL_BOUNDARY = "full"
    PARTIAL_BOUNDARY = "partial"


@dataclass
class SideRef:
    """One triangle side on its supporting line, endpoints in line order."""

    tile: int
    index: int
    a: Point
    b: Point
    lo: Fraction
    hi: Fraction
    sign: int                       # side of the line the tile occupies
    splits: list[Point] = field(default_factory=list)


@dataclass
class AtomicEdge:
    a: Point
    b: Point
    line: LineKey
    lo: Fraction
    hi: Fraction
    incidences: list[tuple[int, int, int]]   # (tile, side index, sign)
    # full or partial boundary by its sole side's splits; internal when shared
    boundary_class: EdgeClass

    @property
    def tiles(self) -> list[int]:
        return [t for t, _, _ in self.incidences]


@dataclass
class LineGroup:
    key: LineKey
    sides: list[SideRef] = field(default_factory=list)
    edges: list[AtomicEdge] = field(default_factory=list)


@dataclass
class EdgeSoup:
    tiles: tuple[Triangle, ...]
    corner_tiles: dict[Point, list[int]]
    lines: dict[LineKey, LineGroup]
    edges: list[AtomicEdge]
    # vertex -> sides whose relative interior contains it
    vertex_subdivides: dict[Point, list[tuple[int, int]]]


def build_soup(tiles: tuple[Triangle, ...]) -> EdgeSoup:
    corner_tiles: dict[Point, list[int]] = {}
    for i, t in enumerate(tiles):
        for p in t.vertices:
            corner_tiles.setdefault(p, []).append(i)

    lines: dict[LineKey, LineGroup] = {}
    for i, t in enumerate(tiles):
        verts = t.vertices
        for s in range(3):
            p, q = verts[s], verts[(s + 1) % 3]
            key = line_through(p, q)
            grp = lines.setdefault(key, LineGroup(key))
            sgn = 1 if line_eval(key, verts[(s + 2) % 3]) > 0 else -1
            kp, kq = line_pos(key, p), line_pos(key, q)
            if kp <= kq:
                grp.sides.append(SideRef(i, s, p, q, kp, kq, sgn))
            else:
                grp.sides.append(SideRef(i, s, q, p, kq, kp, sgn))

    all_edges: list[AtomicEdge] = []
    vertex_subdivides: dict[Point, list[tuple[int, int]]] = {}
    for key in sorted(lines):
        grp = lines[key]
        pts: dict[Fraction, Point] = {}
        for ref in grp.sides:
            pts[ref.lo] = ref.a
            pts[ref.hi] = ref.b
        positions = sorted(pts)
        edge_map: dict[tuple[Fraction, Fraction], AtomicEdge] = {}
        for ref in grp.sides:
            i0 = bisect_right(positions, ref.lo)
            i1 = bisect_left(positions, ref.hi)
            cuts = positions[i0:i1]
            ref.splits = [pts[c] for c in cuts]
            for v in ref.splits:
                vertex_subdivides.setdefault(v, []).append((ref.tile, ref.index))
            seq = [ref.lo, *cuts, ref.hi]
            klass = EdgeClass.PARTIAL_BOUNDARY if cuts else EdgeClass.FULL_BOUNDARY
            for u, w in zip(seq, seq[1:]):
                edge = edge_map.get((u, w))
                if edge is None:
                    edge = AtomicEdge(pts[u], pts[w], key, u, w, [], klass)
                    edge_map[(u, w)] = edge
                else:
                    edge.boundary_class = EdgeClass.INTERNAL
                edge.incidences.append((ref.tile, ref.index, ref.sign))
        grp.edges = [edge_map[k] for k in sorted(edge_map)]
        all_edges.extend(grp.edges)

    return EdgeSoup(tiles, corner_tiles, lines, all_edges, vertex_subdivides)


@dataclass(frozen=True, slots=True)
class VertexFlags:
    boundary: bool
    subdividing: bool
    sides_subdivided: int


@dataclass
class IncidenceGraph:
    """Vertex / atomic-edge structure of a validated patch."""

    patch: TilingPatch
    soup: EdgeSoup
    vertices: dict[Point, VertexFlags]
    region: tuple[Point, ...]            # derived boundary polygon (CCW)
    boundary_edges: list[AtomicEdge]     # full and partial, in soup order
    boundary_vertex_count: int

    @property
    def tiles(self) -> tuple[Triangle, ...]:
        return self.patch.tiles

    @property
    def t(self) -> int:
        return len(self.patch.tiles)

    @property
    def v(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.soup.edges)

    @property
    def f(self) -> int:
        return self.t + 1

    @property
    def v_bd(self) -> int:
        return self.boundary_vertex_count

    @property
    def v_int(self) -> int:
        return self.v - self.v_bd

    @cached_property
    def v_star(self) -> int:
        return sum(1 for fl in self.vertices.values() if fl.subdividing)

    @property
    def v_star_int(self) -> int:
        return sum(1 for fl in self.vertices.values()
                   if fl.subdividing and not fl.boundary)

    @cached_property
    def e_full(self) -> int:
        return sum(1 for e in self.boundary_edges
                   if e.boundary_class is EdgeClass.FULL_BOUNDARY)

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
        boundary = [e for e in soup.edges if e.boundary_class is not EdgeClass.INTERNAL]
        boundary_pts = {p for e in boundary for p in (e.a, e.b)}

        vertices: dict[Point, VertexFlags] = {}
        for p in sorted(soup.corner_tiles, key=Point.key):
            subs = soup.vertex_subdivides.get(p, [])
            vertices[p] = VertexFlags(
                boundary=p in boundary_pts,
                subdividing=bool(subs),
                sides_subdivided=len(subs),
            )
        return cls(patch, soup, vertices, report.derived_region, boundary, len(boundary_pts))

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Tiles sharing a positive-length boundary segment."""
        adj: dict[int, set[int]] = {i: set() for i in range(self.t)}
        for edge in self.soup.edges:
            if len(edge.incidences) == 2:
                (t1, _, _), (t2, _, _) = edge.incidences
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
        return side_labels(self, self.decomposition[0])

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

    worst = max((fl.sides_subdivided for fl in g.vertices.values()), default=0)
    rec.check("subdivides_at_most_one_side", worst <= 1, worst, 1)

    n_boundary = g.e_full + g.e_part
    rec.check("boundary_edges_equal_v_bd", n_boundary == g.v_bd, n_boundary, g.v_bd)
    return rec
