import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (Point, RecursiveSplitSpec, TilingPatch, Triangle, TwoScaleSpec,
                     apply_affine, build_incidence, convex_polygon_on_circle,
                     gen_convex_triangulation, gen_recursive_split, gen_two_scale_periodic,
                     graph_audit, parse_tiling, point_on_segment_interior,
                     serialize_tiling)
from tritile.incidence import build_soup

import fixtures

F = Fraction
P = Point.of
GOLDEN = Path(__file__).parent / "golden"


def recount_edges(patch: TilingPatch) -> int:
    """Independent edge-count oracle: on every tile side, order the
    vertices lying on it and count consecutive pairs; deduplicate
    segments across sides."""
    vertices = {p for t in patch.tiles for p in t.vertices}
    segments = set()
    for t in patch.tiles:
        for a, b in t.sides():
            dx, dy = b.x - a.x, b.y - a.y
            on = [a, b]
            for v in vertices:
                if v in (a, b):
                    continue
                if (v.x - a.x) * dy == (v.y - a.y) * dx:  # collinear
                    s = (v.x - a.x) * dx + (v.y - a.y) * dy
                    if 0 < s < dx * dx + dy * dy:
                        on.append(v)
            on.sort(key=lambda p: ((p.x - a.x) * dx + (p.y - a.y) * dy))
            for u, w in zip(on, on[1:]):
                segments.add((u, w) if u <= w else (w, u))
    return len(segments)


def _strictly_inside(a: Point, b: Point, p: Point) -> bool:
    dx, dy = b.x - a.x, b.y - a.y
    if (p.x - a.x) * dy != (p.y - a.y) * dx:
        return False
    s = (p.x - a.x) * dx + (p.y - a.y) * dy
    return 0 < s < dx * dx + dy * dy


def recount_vertices(patch: TilingPatch, region) -> tuple[int, int, int, int, int]:
    """Independent vertex-count oracle: (v, v_bd, v*, v*_int, the most
    sides one vertex subdivides), by testing every vertex against every
    tile side and every edge of the region polygon."""
    vertices = {p for t in patch.tiles for p in t.vertices}
    edges = list(zip(region, region[1:] + region[:1]))
    on_boundary = {p for p in vertices
                   if any(p in (a, b) or _strictly_inside(a, b, p) for a, b in edges)}
    subdivided = {p: sum(_strictly_inside(a, b, p) for t in patch.tiles for a, b in t.sides())
                  for p in vertices}
    star = {p for p, n in subdivided.items() if n}
    return (len(vertices), len(on_boundary), len(star), len(star - on_boundary),
            max(subdivided.values()))


def recount_boundary_edges(patch: TilingPatch, region) -> tuple[list, list]:
    """Independent e_full/e_part oracle: cut every tile side at the
    vertices strictly inside it and keep the pieces whose midpoint lies on
    an edge of the region polygon.  Returns (full, partial): the boundary
    sides with no cut, and the boundary pieces of cut sides, each piece as
    a pair of points in ascending order."""
    vertices = {p for t in patch.tiles for p in t.vertices}
    edges = list(zip(region, region[1:] + region[:1]))
    full, part = [], []
    for t in patch.tiles:
        for a, b in t.sides():
            d = b - a
            cuts = sorted((p for p in vertices if _strictly_inside(a, b, p)),
                          key=lambda p: (p.x - a.x) * d.x + (p.y - a.y) * d.y)
            seq = [a, *cuts, b]
            for u, w in zip(seq, seq[1:]):
                mid = (u + w).scale(F(1, 2))
                if any(_strictly_inside(p, q, mid) for p, q in edges):
                    (part if cuts else full).append(tuple(sorted((u, w))))
    return full, part


def _brute_force_corpus() -> list[TilingPatch]:
    from test_random_patches import random_refined_patch
    corpus = [fixtures.square_diag(), fixtures.rect_l_shape(),
              fixtures.notched_split(), fixtures.offset_quad()]
    corpus += [parse_tiling((GOLDEN / f"{name}.til").read_bytes())
               for name in ("twoscale-2", "recursive-4", "convex-6")]
    corpus += [random_refined_patch(seed) for seed in range(50)]
    return corpus


class TestCounts:
    def test_single_triangle(self):
        g = build_incidence(TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),)))
        assert (g.v, g.e, g.t) == (3, 3, 1)
        assert (g.e_full, g.e_part) == (3, 0)

    def test_square_diag(self):
        g = build_incidence(fixtures.square_diag())
        assert (g.v, g.e, g.t) == (4, 5, 2)
        assert (g.e_full, g.e_part) == (4, 0)

    def test_depth1_recursive(self):
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 1))
        g = build_incidence(patch)
        assert (g.t, g.v, g.v_bd, g.v_int, g.v_star, g.e) == (4, 6, 3, 3, 3, 9)
        assert g.v_star_int == 3

    def test_notched_split(self):
        g = build_incidence(fixtures.notched_split())
        assert (g.t, g.v, g.e) == (5, 8, 12)
        assert (g.e_full, g.e_part) == (4, 1)
        assert g.v_star == 4
        assert g.v_star_int == 3

    def test_rect_l_shape(self):
        patch = fixtures.rect_l_shape()
        g = build_incidence(patch)
        assert g.e_part == 1
        _, part = recount_boundary_edges(patch, patch.region)
        assert part == [(P(1, 1), P(2, 1))]

    def test_invalid_patch_rejected(self):
        with pytest.raises(ValueError, match="invalid patch"):
            build_incidence(fixtures.annulus())


class TestHandOver:
    """The validator builds a valid patch's graph and hands it over in its
    report; the graph names the patch it was asked for."""

    @pytest.mark.parametrize("make", [
        lambda: parse_tiling((GOLDEN / "recursive-4.til").read_bytes()),
        lambda: parse_tiling(b"#TILING 1\ntri 0 0 1 0 0 1\n"),
        fixtures.square_diag,
        lambda: gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 2, 2)),
        lambda: gen_recursive_split(RecursiveSplitSpec((P(0, 0), P(1, 0), P(0, 1)), F(2), 3)),
        lambda: gen_convex_triangulation(convex_polygon_on_circle(6, 3), "random", 3),
    ], ids=["parsed", "parsed-no-region", "code-built", "twoscale", "recursive", "convex"])
    def test_graph_names_its_patch(self, make):
        patch = make()
        graph = build_incidence(patch)
        assert graph.patch is patch
        assert patch.validation.graph is graph

    def test_invalid_patch_has_no_graph(self):
        patch = fixtures.annulus()
        assert patch.validation.graph is None
        with pytest.raises(ValueError) as err:
            build_incidence(patch)
        assert str(err.value) == "invalid patch: HOLE interior boundary cycle through (1, 1)"


class TestAudit:
    @pytest.mark.parametrize("t", [F(3, 2), F(2), F(3)])
    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 10])
    def test_recursive_family_passes(self, t, depth):
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), t, depth))
        rec = graph_audit(build_incidence(patch))
        assert rec.ok and not rec.not_applicable_entries

    @pytest.mark.parametrize("make", [
        fixtures.square_diag, fixtures.rect_l_shape, fixtures.notched_split,
    ])
    def test_fixture_audits_pass(self, make):
        rec = graph_audit(build_incidence(make()))
        assert rec.ok

    def test_audit_values_single(self):
        rec = graph_audit(build_incidence(
            TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),))))
        assert rec.get("euler").value == "3 3"
        assert rec.get("face_edge_count").value == "6 6"

    def test_audit_values_square_diag(self):
        rec = graph_audit(build_incidence(fixtures.square_diag()))
        assert rec.get("euler").value == "5 5"
        assert rec.get("face_edge_count").value == "10 10"

    def test_render_stable(self):
        rec = graph_audit(build_incidence(fixtures.square_diag()))
        assert rec.render() == graph_audit(build_incidence(fixtures.square_diag())).render()
        assert "euler = 5 5 pass" in rec.render()


class TestOracles:
    @pytest.mark.parametrize("make_patch", [
        lambda: TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),)),
        fixtures.square_diag,
        fixtures.rect_l_shape,
        fixtures.notched_split,
        lambda: gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 3)),
        lambda: gen_recursive_split(RecursiveSplitSpec(
            (P(-3, 1), P(5, 0), P(1, 6)), F(5, 2), 4)),
    ])
    def test_edge_count_matches_brute_force(self, make_patch):
        patch = make_patch()
        assert build_incidence(patch).e == recount_edges(patch)

    def test_vertex_counts_match_brute_force(self):
        for patch in _brute_force_corpus():
            g = build_incidence(patch)
            worst = graph_audit(g).get("subdivides_at_most_one_side").value.split()[0]
            got = (g.v, g.v_bd, g.v_star, g.v_star_int, int(worst))
            assert got == recount_vertices(patch, patch.region or patch.validation.derived_region)

    def test_boundary_edge_counts_match_brute_force(self):
        for patch in _brute_force_corpus():
            g = build_incidence(patch)
            full, part = recount_boundary_edges(patch, patch.region or patch.validation.derived_region)
            assert (g.e_full, g.e_part) == (len(full), len(part))

    def test_atomicity(self):
        # no vertex lies in the relative interior of an atomic edge
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 4))
        g = build_incidence(patch)
        for e in g.soup.edges:
            for v in g.soup.corner_tiles:
                if v not in (e.a, e.b):
                    assert not point_on_segment_interior(e.a, e.b, v)

    def test_every_edge_has_one_or_two_tiles(self):
        for make in (fixtures.square_diag, fixtures.rect_l_shape,
                     fixtures.notched_split):
            g = build_incidence(make())
            assert all(len(e.incidences) in (1, 2) for e in g.soup.edges)


class TestInvariance:
    def test_counts_stable_under_reorder_and_affine(self, rng):
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 3))
        g0 = build_incidence(patch)
        signature = (g0.v, g0.e, g0.t, g0.v_bd, g0.v_int, g0.v_star,
                     g0.e_full, g0.e_part)

        tiles = list(patch.tiles)
        random.Random(11).shuffle(tiles)
        g1 = build_incidence(TilingPatch(tuple(tiles), patch.region))
        assert (g1.v, g1.e, g1.t, g1.v_bd, g1.v_int, g1.v_star,
                g1.e_full, g1.e_part) == signature

        mapped = apply_affine(patch, ((F(1), F(2)), (F(0), F(1))), (F(-4), F(9)))
        g2 = build_incidence(mapped)
        assert (g2.v, g2.e, g2.t, g2.v_bd, g2.v_int, g2.v_star,
                g2.e_full, g2.e_part) == signature

    def test_tile_adjacency_symmetric(self):
        g = build_incidence(fixtures.notched_split())
        adj = g.adjacency
        for u, ns in adj.items():
            for w in ns:
                assert u in adj[w]


# The rational edge soup, as the library built it before it moved to the
# integer grid: the oracle for the grid soup's lines, their order, the
# atomic edges and the vertex facts.

def rational_line_through(p: Point, q: Point):
    """Coefficients (A, B, C) of A*x + B*y + C = 0, leading one scaled to 1."""
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    if a != 0:
        return (F(1), b / a, c / a)
    return (F(0), F(1), c / b)


def rational_line_pos(key, p: Point) -> Fraction:
    return p.y if key[0] == 1 and key[1] == 0 else p.x


def rational_soup(tiles):
    """(line keys in order, edges as (a, b, [(tile, index, sign)]) in order,
    corner_tiles, vertex_subdivides), all on the tiles' own rationals."""
    corner_tiles = {}
    for i, t in enumerate(tiles):
        for p in t.vertices:
            corner_tiles.setdefault(p, []).append(i)
    lines = {}
    for i, t in enumerate(tiles):
        verts = t.vertices
        for s in range(3):
            p, q, r = verts[s], verts[(s + 1) % 3], verts[(s + 2) % 3]
            key = rational_line_through(p, q)
            sign = 1 if key[0] * r.x + key[1] * r.y + key[2] > 0 else -1
            kp, kq = rational_line_pos(key, p), rational_line_pos(key, q)
            lines.setdefault(key, []).append(
                (i, s, p, q, kp, kq, sign) if kp <= kq else (i, s, q, p, kq, kp, sign))
    edges, subdivides = [], {}
    for key in sorted(lines):
        pts = {}
        for _, _, a, b, lo, hi, _ in lines[key]:
            pts[lo], pts[hi] = a, b
        positions = sorted(pts)
        edge_map = {}
        for tile, index, _, _, lo, hi, sign in lines[key]:
            cuts = positions[bisect_right(positions, lo):bisect_left(positions, hi)]
            for c in cuts:
                subdivides.setdefault(pts[c], []).append((tile, index))
            seq = [lo, *cuts, hi]
            for u, w in zip(seq, seq[1:]):
                edge_map.setdefault((u, w), (pts[u], pts[w], []))[2].append((tile, index, sign))
        edges += [edge_map[k] for k in sorted(edge_map)]
    return sorted(lines), edges, corner_tiles, subdivides


def grid_soup_in_rationals(patch: TilingPatch):
    """The library's soup on the patch's grid, in rational_soup's terms."""
    grid = patch.grid
    soup = build_soup(grid.tiles)
    pt, d = grid.point, grid.scale
    for a, b, _ in soup.lines:
        assert math.gcd(a, b) == 1 and (a > 0 or (a == 0 and b > 0)), (a, b)
    # A*X + B*Y + C = 0 with X = d*x is x + (B/A)*y + C/(A*d) = 0
    lines = [(F(1), F(b, a), F(c, a * d)) if a else (F(0), F(1), F(c, b * d))
             for a, b, c in soup.lines]
    edges = [(pt(e.a), pt(e.b), [(r.tile, r.index, r.sign) for r in e.incidences])
             for e in soup.edges]
    return (lines, edges, {pt(p): tiles for p, tiles in soup.corner_tiles.items()},
            {pt(p): sides for p, sides in soup.vertex_subdivides.items()})


def _shuffled(patch: TilingPatch, name: str) -> TilingPatch:
    """The patch with its tri lines shuffled, as the benchmark applies seed 1."""
    lines = serialize_tiling(patch).decode().splitlines()
    tiles = [line for line in lines if line.startswith("tri ")]
    random.Random(f"{name}:1").shuffle(tiles)
    return parse_tiling("\n".join([line for line in lines if not line.startswith("tri ")] + tiles))


def _grid_corpus():
    from test_random_patches import random_refined_patch
    corpus = [parse_tiling(path.read_bytes()) for path in sorted(GOLDEN.glob("*.til"))]
    corpus += [make() for make in (fixtures.square_diag, fixtures.rect_l_shape,
                                   fixtures.notched_split, fixtures.offset_quad,
                                   fixtures.bowtie, fixtures.annulus)]
    corpus += [random_refined_patch(seed) for seed in range(50)]
    corpus += [_shuffled(gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 6, 6)), "twoscale-6"),
               _shuffled(gen_recursive_split(RecursiveSplitSpec(
                   (P(0, 0), P(1, 0), P(0, 1)), F(2), 100)), "recursive-100")]
    return corpus


def test_grid_soup_matches_rational_oracle():
    from test_metamorphic import ISOMETRIES
    rng = random.Random(7)
    shrink = ((F(1, 7), F(0)), (F(0), F(1, 7)))
    for patch in _grid_corpus():
        tiles = list(patch.tiles)
        rng.shuffle(tiles)
        for variant in (patch, TilingPatch(tuple(tiles), patch.region),
                        apply_affine(patch, shrink, (F(1, 3), F(-2, 5))),
                        *(apply_affine(patch, *ISOMETRIES[move])
                          for move in ("quarter-turn", "rotation-3-4-5", "reflection"))):
            assert grid_soup_in_rationals(variant) == rational_soup(variant.tiles)
