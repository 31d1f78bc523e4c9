"""Stretch decomposition and the audits built on top of it.

A *stretch* is a minimal collinear segment that the tiling decomposes
into sides (and, along a ragged boundary, partial boundary edges) in two
different ways: one decomposition from each geometric side of the
supporting line.  Decomposition is one walk per line over its atomic
edges, in position order.  Each edge adds to the deck above and the deck
below the item covering it there, if that item is new: the soup's
``SideRef`` of the tile side, or, where one side covers the edge, a
``SideRef`` with no tile for the outside, spanning just the edge.  A
piece closes where both decks' items end at the same edge.  A piece whose
two decks are the same single segment is not a stretch; it is either a
side shared by two tiles or a full boundary side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction

from .geometry import Point, format_rational, is_convex
from .incidence import AtomicEdge, IncidenceGraph, LineKey, SideRef
from .model import Grid, TilingPatch
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


@dataclass(frozen=True)
class Stretch:
    line: LineKey                   # on the grid, like the decks
    above: tuple[SideRef, ...]
    below: tuple[SideRef, ...]
    size: int
    klass: StretchClass
    grid: Grid = field(repr=False)

    @property
    def a(self) -> Point:           # rational, like the patch
        return self.grid.point(self.above[0].a)

    @property
    def b(self) -> Point:
        return self.grid.point(self.above[-1].b)

    @property
    def long_item(self) -> SideRef:
        """The single side spanning a tight stretch."""
        assert self.klass is StretchClass.TIGHT
        deck = self.above if len(self.above) == 1 else self.below
        return deck[0]

    @property
    def short_items(self) -> tuple[SideRef, SideRef]:
        assert self.klass is StretchClass.TIGHT
        deck = self.below if len(self.above) == 1 else self.above
        return (deck[0], deck[1])

    def describe(self) -> str:
        (ax, ay), (bx, by), d = self.above[0].a, self.above[-1].b, self.grid.scale  # a, b on the grid
        above = ",".join(i.label() for i in self.above)
        below = ",".join(i.label() for i in self.below)
        return (f"span=({format_rational(ax, d)}, {format_rational(ay, d)})->"
                f"({format_rational(bx, d)}, {format_rational(by, d)}) size={self.size} "
                f"class={self.klass.value} decks=[{above}]/[{below}]")


class SharedSide(tuple):
    """A side two tiles share whole, as (t1, t2, seg), tile ids ascending and
    the side's rational ends; ``refs`` are its two soup records, in tile order."""


def _deck_item(edge: AtomicEdge, sign: int) -> SideRef:
    """The soup's side over `edge` on the `sign` side of its line, else the outside."""
    for ref in edge.incidences:
        if ref.sign == sign:
            return ref
    return SideRef(None, None, edge.a, edge.b, edge.lo, edge.hi, sign)


def decompose_stretches(g: IncidenceGraph) -> tuple[list[Stretch], list[SharedSide]]:
    """All stretches of the patch, plus the shared full sides found on the
    way (which, by definition, belong to no stretch)."""
    stretches: list[Stretch] = []
    shared: list[SharedSide] = []
    grid = g.patch.grid

    for key, edges in g.soup.lines.items():
        above: list[SideRef] = []
        below: list[SideRef] = []
        for edge in edges:
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
                    r1, r2 = sorted((pa[0], pb[0]))
                    side = SharedSide((r1.tile, r2.tile, (grid.point(r1.a), grid.point(r1.b))))
                    side.refs = (r1, r2)
                    shared.append(side)
                continue
            n_sides = sum(1 for i in pa + pb if i.is_side)
            if n_sides < len(pa) + len(pb):
                klass = StretchClass.IMPROPER
            elif n_sides == 3:
                klass = StretchClass.TIGHT
            else:
                klass = StretchClass.LOOSE_PROPER
            stretches.append(Stretch(key, pa, pb, n_sides, klass, grid))

    return stretches, sorted(shared, key=lambda s: (s[0], s[1]))


def shared_side_pairs(g: IncidenceGraph) -> list[SharedSide]:
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
    if len(g.outline) != 3:
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
    return min_margin(patch)[0]


def min_margin(patch: TilingPatch) -> tuple[LengthExpr, tuple[int, int, int]]:
    """eps2, the minimum over tiles of (two shorter sides minus the longest
    side), and the shape it is the margin of.

    Congruent tiles have equal margins, so one margin is considered per
    shape (squared side lengths s1 <= s2 <= s3 on the grid), in tile
    order; on a tie the first tile's margin, and so its written form,
    wins.  The shapes are read off the grid's ``side_squares``, and each
    grid margin gets integer bounds from ``Grid.bounds``.  Only shapes
    whose lower bound is at most the least upper bound can be the
    minimum, so only their margins are built exactly; `min` over them,
    in tile order, keeps the first of equal margins written differently
    (-4 + sqrt(20) and -4 + 2*sqrt(5)), which the exact difference finds
    equal.
    """
    grid = patch.grid
    if not grid.tiles:
        raise ValueError("empty patch")
    shapes = dict.fromkeys(tuple(sorted(sqs)) for sqs in grid.side_squares)
    bounds = {(s1, s2, s3): grid.bounds(((s1, 1), (s2, 1), (s3, -1))) for s1, s2, s3 in shapes}
    cut = min(hi for _, hi in bounds.values())
    margins = {s: LengthExpr.sum((grid.length(s[0]), grid.length(s[1]), grid.length(s[2], -1)))
               for s, (lo, _) in bounds.items() if lo <= cut}
    shape = min(margins, key=margins.__getitem__)
    return margins[shape], shape


@dataclass
class WAudit:
    """The W audit's results; each tile's share of W, ``contributions``, is
    built on first read, once per key of ``tile_keys``."""

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
    tile_keys: list[tuple]              # per tile: squared grid sides, then labels
    by_key: dict[tuple, LengthExpr]     # each key's contribution, built on first lookup
    record: AuditRecord = field(default_factory=lambda: AuditRecord("w-audit"))

    @cached_property
    def contributions(self) -> list[LengthExpr]:
        return [self.by_key[key] for key in self.tile_keys]


def w_audit(g: IncidenceGraph, *, unit_perimeter: bool = False) -> WAudit:
    """Compute W by its definition and via the tight-stretch identity
    W = -eps2 * sigma_tight, and verify they agree exactly.

    Tiles with equal keys (squared grid sides, then labels, in side order)
    contribute alike and fail the same checks, so each key is judged once,
    by :func:`_tile_w`, which builds its contribution only if a check needs it.
    Side lengths are read off the grid's ``side_squares``, by (tile, index).

    The audit assumes a share-free patch (strict mode): with shared sides
    present every check is reported n/a.
    """
    rec = AuditRecord("w-audit")
    stretches, labels, (eps2, (e1, e2, e3)) = g.decomposition[0], g.labels, g.min_margin
    grid = g.patch.grid
    sigma = sum(1 for s in stretches if s.klass is StretchClass.TIGHT)
    loose = sum(s.size for s in stretches if s.klass is not StretchClass.TIGHT)

    if shared_side_pairs(g):
        rec.not_applicable("w_routes_agree", "patch has shared sides")
        return WAudit(False, sigma, loose, g.e_full, g.e_part, eps2, 0, 0,
                      LengthExpr(), LengthExpr(), {}, [], {}, rec)

    n_long = sum(1 for v in labels.values() if v is SideLabel.LONG)
    n_short = sum(1 for v in labels.values() if v is SideLabel.SHORT)
    rec.info("sigma_tight", sigma)
    rec.info("L_loose", loose)
    rec.info("e_full", g.e_full)
    rec.info("e_part", g.e_part)
    rec.info("epsilon2", f"{eps2!r} (~{eps2.decimal_str()})")
    rec.check("long_count_is_sigma", n_long == sigma, n_long, sigma)
    rec.check("short_count_is_twice_sigma", n_short == 2 * sigma, n_short, 2 * sigma)

    # per-stretch exact cancellation, on the grid's ints; only a stretch
    # that fails it adds a (nonzero) piece to the W sum
    pieces: list[LengthExpr] = []
    ties_ok = True
    for st in stretches:
        if st.klass is not StretchClass.TIGHT:
            continue
        sq1, sq2, long_sq = (grid.side_squares[i.tile][i.index]
                             for i in (*st.short_items, st.long_item))
        if not (long_sq > sq1 and long_sq > sq2):
            ties_ok = False
        if not _cancels(sq1, sq2, long_sq):
            pieces.append(grid.length(sq1) + grid.length(sq2) - grid.length(long_sq))
    rec.check("tight_length_cancellation", not pieces)
    rec.check("long_side_strictly_longest", ties_ok)

    len_diff = LengthExpr.sum(pieces)   # total short length - total long length
    w_def = LengthExpr.sum([LengthExpr.rational(Fraction(2 * n_long - n_short, 3)),
                            eps2 * -n_long, len_diff])
    w_id = -(eps2 * sigma)
    rec.check("w_routes_agree", w_def == w_id, f"{w_def!r}", f"{w_id!r}")

    type_counts = {"type0": 0, "type1": 0, "type2": 0, "type3": 0, "exceptional": 0}
    failed: set[str] = set()
    keys = [sqs + (labels[(i, 0)], labels[(i, 1)], labels[(i, 2)])
            for i, sqs in enumerate(grid.side_squares)]
    by_key = _Contributions(grid, eps2)
    eps2_bounds = grid.bounds(((e1, -1), (e2, -1), (e3, 1)))  # of -D * eps2
    for key, count in Counter(keys).items():
        kind, fails = _tile_w(key, by_key, eps2_bounds, unit_perimeter)
        type_counts[kind] += count
        failed.update(fails)

    for name, count in type_counts.items():
        rec.info(name, count)
    rec.check("type1_nonnegative", "type1_nonnegative" not in failed)
    if unit_perimeter:
        for name in ("unit_perimeter", "type0_zero", "type2_bound", "type3_value",
                     "exceptional_bound"):
            rec.check(name, name not in failed)

    return WAudit(True, sigma, loose, g.e_full, g.e_part, eps2, n_long, n_short,
                  w_def, w_id, type_counts, keys, by_key, rec)


def _cancels(sq1: int, sq2: int, long_sq: int) -> bool:
    """Whether sqrt(sq1) + sqrt(sq2) == sqrt(long_sq), for ints >= 0: squaring
    once gives gap = long_sq - sq1 - sq2 = 2*sqrt(sq1*sq2), so gap >= 0, and
    squaring again gives gap**2 == 4*sq1*sq2."""
    gap = long_sq - sq1 - sq2
    return gap >= 0 and gap * gap == 4 * sq1 * sq2


class _Contributions(dict):
    """Each key's W contribution, built on first lookup: each long side adds
    2/3 - eps2 - length, each short one length - 1/3."""

    def __init__(self, grid: Grid, eps2: LengthExpr):
        super().__init__()
        self.grid, self.eps2 = grid, eps2

    def __missing__(self, key: tuple) -> LengthExpr:
        sqs, kinds = key[:3], key[3:]
        n = kinds.count(SideLabel.LONG)
        self[key] = contrib = LengthExpr.sum([
            LengthExpr.rational(Fraction(2 * n - kinds.count(SideLabel.SHORT), 3)), self.eps2 * -n,
            *(self.grid.length(sq, -1 if kind is SideLabel.LONG else 1)
              for sq, kind in zip(sqs, kinds) if kind is not SideLabel.NONE)])
        return contrib


def _tile_w(key: tuple, by_key: _Contributions, eps2_bounds: tuple[int, int],
            unit_perimeter: bool) -> tuple[str, tuple[str, ...]]:
    """One key's type and the checks it fails.  A type-1 key (one long side,
    two short) has D * contribution = sqrt(q1) + sqrt(q2) - sqrt(q_long) -
    D * eps2 on its squared grid sides q, D the grid scale; with eps2_bounds
    those of -D * eps2, its sign is bounded on ints by ``Grid.bounds``, and
    the contribution is built only when the bounds do not settle it."""
    sqs, kinds = key[:3], key[3:]
    n = kinds.count(SideLabel.LONG)
    perim = LengthExpr.sum(map(by_key.grid.length, sqs)) if unit_perimeter else None
    if SideLabel.NONE in kinds:
        if unit_perimeter and by_key[key] < perim * Fraction(-2, 3):
            return "exceptional", ("exceptional_bound",)
        return "exceptional", ()
    fails = []
    if n == 1:
        lo, hi = by_key.grid.bounds([(sq, -1 if kind is SideLabel.LONG else 1)
                                     for sq, kind in zip(sqs, kinds)])
        if hi + eps2_bounds[1] < 0 or (lo + eps2_bounds[0] < 0 and by_key[key].sign() < 0):
            fails.append("type1_nonnegative")
    if unit_perimeter:
        eps2 = by_key.eps2
        if perim != LengthExpr.rational(1):
            fails.append("unit_perimeter")
        if n == 0 and not by_key[key].is_zero():
            fails.append("type0_zero")
        if n == 2 and by_key[key] < by_key.grid.length(min(sqs)) * 2 - eps2 * 2:
            fails.append("type2_bound")
        if n == 3 and by_key[key] != perim - eps2 * 3:
            fails.append("type3_value")
    return ("type0", "type1", "type2", "type3")[n], tuple(fails)


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
    for side in shared:
        (t1, s1), (t2, s2) = (ref.side for ref in side.refs)
        result.append((t1, s1, ((t2, s2),)))
        result.append((t2, s2, ((t1, s1),)))
    return sorted(result)


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
