import random
from fractions import Fraction

import pytest

from tritile import (EdgeClass, Point, RecursiveSplitSpec, TilingPatch,
                     Triangle, apply_affine, build_incidence,
                     gen_recursive_split, graph_audit, point_on_segment_interior)

import fixtures

F = Fraction
P = Point.of


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
                segments.add((u, w) if u.key() <= w.key() else (w, u))
    return len(segments)


class TestCounts:
    def test_single_triangle(self):
        g = build_incidence(TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),)))
        assert (g.v, g.e, g.t) == (3, 3, 1)
        assert all(e.boundary_class is EdgeClass.FULL_BOUNDARY
                   for e in g.soup.edges)

    def test_square_diag(self):
        g = build_incidence(fixtures.square_diag())
        assert (g.v, g.e, g.t) == (4, 5, 2)
        classes = sorted(e.boundary_class.value for e in g.soup.edges)
        assert classes == ["full"] * 4 + ["internal"]

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
        g = build_incidence(fixtures.rect_l_shape())
        assert g.e_part == 1
        part = [e for e in g.soup.edges
                if e.boundary_class is EdgeClass.PARTIAL_BOUNDARY]
        assert [(e.a, e.b) for e in part] == [(P(1, 1), P(2, 1))]

    def test_invalid_patch_rejected(self):
        with pytest.raises(ValueError, match="invalid patch"):
            build_incidence(fixtures.annulus())


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

    def test_atomicity(self):
        # no vertex lies in the relative interior of an atomic edge
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 4))
        g = build_incidence(patch)
        for e in g.soup.edges:
            for v in g.vertices:
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
