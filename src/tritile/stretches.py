"""Stretch decomposition and the audits built on top of it.

A *stretch* is a minimal collinear segment that the tiling decomposes
into sides (and, along a ragged boundary, partial boundary edges) in two
different ways: one decomposition from each geometric side of the
supporting line.  Decomposition is one walk per line over its atomic
edges, in position order.  Each edge adds to the deck above and the deck
below the item covering it there, if that item is new: a tile side, or a
boundary marker spanning just the edge where one side covers it.  A
piece closes where both decks' items end at the same edge.  A piece whose
two decks are the same single segment is not a stretch; it is either a
side shared by two tiles or a full boundary side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .geometry import Point, is_convex, sq_dist
from .incidence import AtomicEdge, IncidenceGraph, LineKey
from .model import TilingPatch
from .radicals import LengthExpr
from .report import AuditRecord


class StretchClass(Enum):
    TIGHT = "tight"
    LOOSE_PROPER = "loose"
    IMPROPER = "improper"


class SideLabel(Enum):
    LONG = "long"
    SHORT = "short"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class DeckItem:
    """One piece of a decomposition deck: a tile side, or the marker that
    stands in for the outside along partial boundary edges (on the grid)."""

    lo: int
    hi: int
    side: tuple[int, int] | None    # (tile, side index); None = boundary marker
    a: Point
    b: Point

    @property
    def is_side(self) -> bool:
        return self.side is not None

    def label(self) -> str:
        if self.side is None:
            return "bd"
        return f"{self.side[0]}.{self.side[1]}"


@dataclass(frozen=True)
class Stretch:
    line: LineKey                   # on the grid
    a: Point                        # rational, like the patch
    b: Point
    above: tuple[DeckItem, ...]
    below: tuple[DeckItem, ...]
    size: int
    klass: StretchClass

    @property
    def side_items(self) -> list[DeckItem]:
        return [i for i in self.above + self.below if i.is_side]

    @property
    def long_item(self) -> DeckItem:
        """The single side spanning a tight stretch."""
        assert self.klass is StretchClass.TIGHT
        deck = self.above if len(self.above) == 1 else self.below
        return deck[0]

    @property
    def short_items(self) -> tuple[DeckItem, DeckItem]:
        assert self.klass is StretchClass.TIGHT
        deck = self.below if len(self.above) == 1 else self.above
        return (deck[0], deck[1])

    def describe(self) -> str:
        above = ",".join(i.label() for i in self.above)
        below = ",".join(i.label() for i in self.below)
        return (f"span={self.a}->{self.b} size={self.size} "
                f"class={self.klass.value} decks=[{above}]/[{below}]")


def _deck_item(edge: AtomicEdge, sign: int) -> DeckItem:
    """The item over `edge` on the `sign` side of its line: the tile side
    there, or a boundary marker spanning just the edge."""
    for ref in edge.incidences:
        if ref.sign == sign:
            return DeckItem(ref.lo, ref.hi, (ref.tile, ref.index), ref.a, ref.b)
    return DeckItem(edge.lo, edge.hi, None, edge.a, edge.b)


def decompose_stretches(g: IncidenceGraph) -> tuple[list[Stretch], list[tuple[int, int, tuple[Point, Point]]]]:
    """All stretches of the patch, plus the shared full sides found on the
    way (which, by definition, belong to no stretch)."""
    stretches: list[Stretch] = []
    shared: list[tuple[int, int, tuple[Point, Point]]] = []
    pt = g.patch.grid.point

    for key, grp in g.soup.lines.items():
        above: list[DeckItem] = []
        below: list[DeckItem] = []
        for edge in grp.edges:
            for deck, sign in ((above, 1), (below, -1)):
                if not deck or deck[-1].hi == edge.lo:
                    deck.append(_deck_item(edge, sign))
            if above[-1].hi != edge.hi or below[-1].hi != edge.hi:
                continue
            # both decks break here: the piece since the last break is done
            pa, pb = tuple(above), tuple(below)
            above.clear()
            below.clear()
            if len(pa) == 1 and len(pb) == 1:
                # identical decompositions: shared side or full boundary side
                if pa[0].is_side and pb[0].is_side:
                    t1, t2 = pa[0].side[0], pb[0].side[0]
                    shared.append((min(t1, t2), max(t1, t2), (pt(pa[0].a), pt(pa[0].b))))
                continue
            n_sides = sum(1 for i in pa + pb if i.is_side)
            if n_sides < len(pa) + len(pb):
                klass = StretchClass.IMPROPER
            elif n_sides == 3:
                klass = StretchClass.TIGHT
            else:
                klass = StretchClass.LOOSE_PROPER
            stretches.append(Stretch(key, pt(pa[0].a), pt(pa[-1].b), pa, pb, n_sides, klass))

    return stretches, sorted(shared, key=lambda s: (s[0], s[1]))


def shared_side_pairs(g: IncidenceGraph) -> list[tuple[int, int, tuple[Point, Point]]]:
    """Unordered tile pairs with an identical full side (cached on the graph)."""
    return g.decomposition[1]


def side_labels(g: IncidenceGraph) -> dict[tuple[int, int], SideLabel]:
    """LONG/SHORT labels induced by the tight stretches; everything else NONE."""
    labels = {(i, s): SideLabel.NONE
              for i in range(g.t) for s in range(3)}
    for st in g.decomposition[0]:
        if st.klass is not StretchClass.TIGHT:
            continue
        labels[st.long_item.side] = SideLabel.LONG
        for item in st.short_items:
            labels[item.side] = SideLabel.SHORT
    return labels


def eq1_audit(g: IncidenceGraph) -> AuditRecord:
    """The convex-region vertex identity: v_bd + 2*v_int - v*_int = t + 2.

    Needs only the incidence counts, so it applies to every valid patch
    whose region is convex, shared sides or not.  When no two tiles share
    a side, also checks the corollary that forces v_bd = 3.
    """
    rec = AuditRecord("eq1-audit")
    if not is_convex(g.outline):
        rec.not_applicable("vertex_identity", "region not convex")
        return rec
    lhs = g.v_bd + 2 * g.v_int - g.v_star_int
    rhs = g.t + 2
    rec.info("v_bd", g.v_bd)
    rec.info("v_int", g.v_int)
    rec.info("v_star_int", g.v_star_int)
    rec.check("vertex_identity", lhs == rhs, lhs, rhs)
    if not shared_side_pairs(g):
        rec.check("no_shared_sides_forces_triangle", g.v_bd == 3, g.v_bd, 3)
    else:
        rec.not_applicable("no_shared_sides_forces_triangle", "patch has shared sides")
    return rec


def no_shared_side_conditions(g: IncidenceGraph) -> AuditRecord:
    """The three structural facts forced on share-free tilings of a
    triangle: corner-only boundary vertices, every interior vertex
    subdividing, and every stretch tight."""
    rec = AuditRecord("share-free-triangle-conditions")
    if len(g.region) != 3:
        rec.not_applicable("conditions", "region is not a triangle")
        return rec
    if shared_side_pairs(g):
        rec.not_applicable("conditions", "patch has shared sides")
        return rec
    rec.check("i_no_vertex_on_region_sides", g.v_bd == 3, g.v_bd, 3)
    rec.check("ii_interior_vertices_subdivide", g.v_star_int == g.v_int,
              g.v_star_int, g.v_int)
    bad = sum(1 for s in g.decomposition[0] if s.klass is not StretchClass.TIGHT)
    rec.check("iii_all_stretches_size_3", bad == 0, bad, 0)
    return rec


def epsilon2(patch: TilingPatch) -> LengthExpr:
    """Minimum over tiles of (two shorter sides minus the longest side).

    Congruent tiles have equal margins, so one margin is measured per
    shape (squared side lengths on the grid), in tile order; on a tie the
    first tile's margin, and so its written form, wins.
    """
    if not patch.tiles:
        raise ValueError("empty patch")
    grid = patch.grid
    shapes = dict.fromkeys(t.squared_sides() for t in grid.tiles)
    return min((grid.length(s1) + grid.length(s2)) - grid.length(s3)
               for s1, s2, s3 in shapes)


@dataclass
class WAudit:
    applicable: bool
    sigma_tight: int
    loose_total_size: int               # L_loose: a count of sides
    e_full: int
    e_part: int
    epsilon2: LengthExpr
    n_long: int
    n_short: int
    w_definition: LengthExpr
    w_identity: LengthExpr
    type_counts: dict[str, int]
    contributions: list[LengthExpr]
    record: AuditRecord = field(default_factory=lambda: AuditRecord("w-audit"))


def w_audit(g: IncidenceGraph, *, unit_perimeter: bool = False) -> WAudit:
    """Compute W by its definition and via the tight-stretch identity
    W = -eps2 * sigma_tight, and verify they agree exactly.

    The audit assumes a share-free patch (strict mode): with shared sides
    present every check is reported n/a.
    """
    rec = AuditRecord("w-audit")
    stretches, labels, eps2 = g.decomposition[0], g.labels, g.eps2
    grid = g.patch.grid
    sigma = sum(1 for s in stretches if s.klass is StretchClass.TIGHT)
    loose = sum(s.size for s in stretches if s.klass is not StretchClass.TIGHT)

    if shared_side_pairs(g):
        rec.not_applicable("w_routes_agree", "patch has shared sides")
        return WAudit(False, sigma, loose, g.e_full, g.e_part, eps2, 0, 0,
                      LengthExpr(), LengthExpr(), {}, [], rec)

    n_long = sum(1 for v in labels.values() if v is SideLabel.LONG)
    n_short = sum(1 for v in labels.values() if v is SideLabel.SHORT)
    rec.info("sigma_tight", sigma)
    rec.info("L_loose", loose)
    rec.info("e_full", g.e_full)
    rec.info("e_part", g.e_part)
    rec.info("epsilon2", f"{eps2!r} (~{eps2.decimal_str()})")
    rec.check("long_count_is_sigma", n_long == sigma, n_long, sigma)
    rec.check("short_count_is_twice_sigma", n_short == 2 * sigma, n_short, 2 * sigma)

    # per-stretch exact cancellation: the long side spans the two shorts
    pieces: list[LengthExpr] = []
    ties_ok = True
    for st in stretches:
        if st.klass is not StretchClass.TIGHT:
            continue
        li = st.long_item
        s1, s2 = st.short_items
        long_sq = sq_dist(li.a, li.b)
        sq1, sq2 = sq_dist(s1.a, s1.b), sq_dist(s2.a, s2.b)
        if not (long_sq > sq1 and long_sq > sq2):
            ties_ok = False
        pieces.append(grid.length(sq1) + grid.length(sq2) - grid.length(long_sq))
    rec.check("tight_length_cancellation", all(p.is_zero() for p in pieces))
    rec.check("long_side_strictly_longest", ties_ok)

    len_diff = LengthExpr.sum(pieces)   # total short length - total long length
    w_def = LengthExpr.sum([LengthExpr.rational(Fraction(2 * n_long - n_short, 3)),
                            eps2 * -n_long, len_diff])
    w_id = -(eps2 * sigma)
    rec.check("w_routes_agree", w_def == w_id, f"{w_def!r}", f"{w_id!r}")

    # classify tiles and accumulate per-tile contributions
    type_counts = {"type0": 0, "type1": 0, "type2": 0, "type3": 0, "exceptional": 0}
    contributions: list[LengthExpr] = []
    one = LengthExpr.rational(1)
    checks = {"type1_nonnegative": True, "type0_zero": True,
              "type2_bound": True, "type3_value": True,
              "exceptional_bound": True, "unit_perimeter": True}
    for i, tile in enumerate(grid.tiles):
        kinds = [labels[(i, s)] for s in range(3)]
        n = kinds.count(SideLabel.LONG)
        # each long side adds 2/3 - eps2 - length, each short one length - 1/3
        contrib = LengthExpr.sum([
            LengthExpr.rational(Fraction(2 * n - kinds.count(SideLabel.SHORT), 3)),
            eps2 * -n,
            *(grid.length(sq_dist(p, q), -1 if kind is SideLabel.LONG else 1)
              for (p, q), kind in zip(tile.sides(), kinds) if kind is not SideLabel.NONE)])
        contributions.append(contrib)

        if SideLabel.NONE in kinds:
            type_counts["exceptional"] += 1
            if unit_perimeter:
                bound = grid.perimeter(tile) * Fraction(-2, 3)
                if contrib < bound:
                    checks["exceptional_bound"] = False
            continue
        type_counts[f"type{n}"] += 1
        if n == 1 and contrib.sign() < 0:
            checks["type1_nonnegative"] = False
        if unit_perimeter:
            perim = grid.perimeter(tile)
            if perim != one:
                checks["unit_perimeter"] = False
            if n == 0 and not contrib.is_zero():
                checks["type0_zero"] = False
            if n == 2:
                min_side = grid.length(tile.squared_sides()[0])
                bound = min_side * 2 - eps2 * 2
                if contrib < bound:
                    checks["type2_bound"] = False
            if n == 3:
                expected = perim - eps2 * 3
                if contrib != expected:
                    checks["type3_value"] = False

    for name, count in type_counts.items():
        rec.info(name, count)
    rec.check("type1_nonnegative", checks["type1_nonnegative"])
    if unit_perimeter:
        for name in ("unit_perimeter", "type0_zero", "type2_bound", "type3_value",
                     "exceptional_bound"):
            rec.check(name, checks[name])

    return WAudit(True, sigma, loose, g.e_full, g.e_part, eps2, n_long, n_short,
                  w_def, w_id, type_counts, contributions, rec)


def composite_sides(g: IncidenceGraph) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Sides that are exactly the union of entire sides of other tiles.

    Read off the decomposition: a side is composite when it alone is one
    deck of a proper stretch (the other deck is then two or more sides
    tiling its span), or when it is a side shared with one other tile.
    """
    stretches, shared = g.decomposition
    result = []
    for st in stretches:
        if st.klass is StretchClass.IMPROPER:
            continue
        for deck, other in ((st.above, st.below), (st.below, st.above)):
            if len(deck) == 1:
                result.append((*deck[0].side, tuple(i.side for i in other)))
    for t1, t2, seg in shared:
        s1, s2 = _side_index(g, t1, seg), _side_index(g, t2, seg)
        result.append((t1, s1, ((t2, s2),)))
        result.append((t2, s2, ((t1, s1),)))
    return sorted(result)


def _side_index(g: IncidenceGraph, tile: int, seg: tuple[Point, Point]) -> int:
    return next(s for s, side in enumerate(g.tiles[tile].sides()) if set(side) == set(seg))


def composite_hop_distances(g: IncidenceGraph) -> list[int | None]:
    """Per tile, the least number of neighbor hops to a tile owning a
    composite side (None when unreachable), by one multi-source BFS."""
    hops: list[int | None] = [None] * g.t
    frontier = sorted({t for t, _, _ in composite_sides(g)})
    for t in frontier:
        hops[t] = 0
    adj = g.adjacency
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if hops[w] is None:
                    hops[w] = dist
                    nxt.append(w)
        frontier = nxt
    return hops


def neighbor_hops_to_composite(g: IncidenceGraph, tile: int) -> int | None:
    """Least number of neighbor hops from `tile` to a tile owning a
    composite side; None when no such tile exists in the patch."""
    if not 0 <= tile < g.t:
        raise IndexError(f"tile {tile} out of range")
    return g.composite_hops[tile]
