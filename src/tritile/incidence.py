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

Each incidence fact has one record, made once by its owner.
:func:`build_soup` makes one :class:`SideRef` per side, which the stretch
decks hold too (the outside along a boundary edge is a ``SideRef`` with
no tile), splits the sides, records which sides each vertex subdivides
and keeps the vertex->tiles map ``incident_tiles``.  An edge is on the
boundary iff one side covers it, and a boundary edge is full iff that
side spans it, partial otherwise.  :mod:`tritile.validate` lists the
boundary edges, certifies that they form one simple counterclockwise
cycle, derives the region from it and, for a *valid* patch, builds the
:class:`IncidenceGraph` on its soup and boundary edges.  The graph reads
every count (v, e, v*, v_bd, e_full, e_part) off them, and caches what
later layers derive (stretches, labels, eps2), so every audit takes just
the graph.

Every point, position and line key in the soup and the graph is a grid
value; the rational outline is the validator's ``derived_region``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .geometry import Point, Triangle
from .model import TilingPatch
from .report import AuditRecord

if TYPE_CHECKING:
    from .radicals import LengthExpr
    from .stretches import SharedSide, SideLabel, Stretch

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


class SideRef(NamedTuple):
    """One triangle side on its supporting line, endpoints in line order;
    or, with no tile, the outside along one boundary edge (a deck's marker)."""

    tile: int | None
    index: int | None
    a: Point
    b: Point
    lo: int                         # positions: X, or Y on a vertical line
    hi: int
    sign: int                       # side of the line the tile (or outside) occupies

    @property
    def side(self) -> tuple[int, int] | None:
        return None if self.tile is None else (self.tile, self.index)

    @property
    def is_side(self) -> bool:
        return self.tile is not None

    def label(self) -> str:
        return "bd" if self.tile is None else f"{self.tile}.{self.index}"


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
class EdgeSoup:
    corner_tiles: dict[Point, list[int]]
    lines: dict[LineKey, list[AtomicEdge]]  # in line order, edges by position
    edges: list[AtomicEdge]
    # vertex -> sides whose relative interior contains it
    vertex_subdivides: dict[Point, list[tuple[int, int]]]

    @cached_property
    def incident_tiles(self) -> dict[Point, set[int]]:
        """Every tile whose closure contains the vertex (corner or mid-side)."""
        incident = {p: set(tiles) for p, tiles in self.corner_tiles.items()}
        for p, sides in self.vertex_subdivides.items():
            incident.setdefault(p, set()).update(t for t, _ in sides)
        return incident


def build_soup(tiles: tuple[Triangle, ...]) -> EdgeSoup:
    """The edge soup of the tiles of a patch's grid.  Side p->q gets
    `line_through`'s key, cut by a gcd g; its tile is counterclockwise, so
    the apex lies on the side of sign -g.  Lines come in the order of their
    rational forms (0, 1, C) and (1, B/A, C/A): with 2**K > (largest A)**2,
    distinct slopes B/A have distinct floors of B * 2**K / A.  Each line is
    split in one pass over its sorted side endpoints."""
    corner_tiles: dict[Point, list[int]] = {}
    sides: dict[LineKey, list[SideRef]] = {}
    gcd, new = math.gcd, tuple.__new__  # SideRef(...) would run a Python-level __new__
    for i, t in enumerate(tiles):
        a, b, c = verts = t.vertices
        for p in verts:
            corner_tiles.setdefault(p, []).append(i)
        for s, p, q in ((0, a, b), (1, b, c), (2, c, a)):
            dy, dx = q.y - p.y, p.x - q.x
            g = gcd(dy, dx) if dy > 0 or (dy == 0 and dx > 0) else -gcd(dy, dx)
            dy, dx = dy // g, dx // g
            key = (dy, dx, -(dy * p.x + dx * p.y))
            kp, kq = (p.x, q.x) if dx else (p.y, q.y)
            sgn = -1 if g > 0 else 1
            sides.setdefault(key, []).append(new(SideRef, (i, s, p, q, kp, kq, sgn) if kp <= kq
                                                 else (i, s, q, p, kq, kp, sgn)))

    shift = 2 * max(sides, default=(0,))[0].bit_length()  # K, from the largest A
    lines: dict[LineKey, list[AtomicEdge]] = {}
    vertex_subdivides: dict[Point, list[tuple[int, int]]] = {}
    for key in sorted(sides, key=lambda k: (k[0] > 0, (k[1] << shift) // k[0] if k[0] else 0, k[2])):
        refs = sides[key]
        pts: dict[int, Point] = {}
        for ref in refs:
            pts[ref.lo] = ref.a
            pts[ref.hi] = ref.b
        positions = sorted(pts)
        index = {u: j for j, u in enumerate(positions)}
        slots: list[AtomicEdge | None] = [None] * (len(positions) - 1)
        for ref in refs:
            i0, i1 = index[ref.lo], index[ref.hi]
            for j in range(i0 + 1, i1):
                vertex_subdivides.setdefault(pts[positions[j]], []).append((ref.tile, ref.index))
            for j in range(i0, i1):
                edge = slots[j]
                if edge is None:
                    u, w = positions[j], positions[j + 1]
                    edge = slots[j] = AtomicEdge(pts[u], pts[w], key, u, w, [])
                edge.incidences.append(ref)
        lines[key] = [e for e in slots if e is not None]

    edges = [e for on_line in lines.values() for e in on_line]
    return EdgeSoup(corner_tiles, lines, edges, vertex_subdivides)


@dataclass
class IncidenceGraph:
    """Vertex / atomic-edge structure of a validated patch."""

    patch: TilingPatch
    soup: EdgeSoup
    outline: tuple[Point, ...]           # derived boundary polygon (CCW), on the grid
    boundary_edges: list[AtomicEdge]     # full and partial, in soup order
    boundary_vertices: set[Point]

    @property
    def t(self) -> int:
        return len(self.patch)

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

    @cached_property
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

    # Facts that tritile.stretches derives from the graph, computed once by
    # its public functions; callers share them and must not mutate them.

    @cached_property
    def decomposition(self) -> tuple[list[Stretch], list[SharedSide]]:
        """The stretches and the shared sides, as decompose_stretches gives them."""
        from .stretches import decompose_stretches
        return decompose_stretches(self)

    @cached_property
    def labels(self) -> dict[tuple[int, int], SideLabel]:
        from .stretches import side_labels
        return side_labels(self)

    @cached_property
    def min_margin(self) -> tuple[LengthExpr, tuple[int, int, int]]:
        """eps2 and its shape (squared grid sides), as min_margin gives them."""
        from .stretches import min_margin
        return min_margin(self.patch)

    @property
    def eps2(self) -> LengthExpr:
        return self.min_margin[0]

    @cached_property
    def composite_hops(self) -> list[int | None]:
        from .stretches import composite_hop_distances
        return composite_hop_distances(self)


def build_incidence(patch: TilingPatch) -> IncidenceGraph:
    """The incidence graph of a valid patch (ValueError if invalid), which
    the validator built on its own soup: ``patch.validation.graph``."""
    report = patch.validation
    if report.graph is None:
        raise ValueError(
            "invalid patch: " + "; ".join(v.describe() for v in report.violations))
    return report.graph


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
