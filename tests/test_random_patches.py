"""Randomized cross-validation: arbitrary valid patches must satisfy every
audit, and random corruptions must never slip through the validator."""

import random
from fractions import Fraction

from tritile import (Point, TilingPatch, Triangle, build_incidence,
                     convex_polygon_on_circle, decompose_stretches, eq1_audit,
                     gen_convex_triangulation, graph_audit, shared_side_pairs,
                     validate_patch)

from fixtures import side_items
from test_incidence import recount_edges
from test_stretches import brute_force_shared

F = Fraction
P = Point.of


def random_refined_patch(seed: int) -> TilingPatch:
    """A conforming triangulation of a convex polygon, refined by random
    interior-point splits (keeps validity, adds interior vertices)."""
    rng = random.Random(seed)
    k = rng.randint(3, 7)
    poly = convex_polygon_on_circle(k, seed)
    patch = gen_convex_triangulation(poly, "random", seed)
    tiles = list(patch.tiles)
    for _ in range(rng.randint(1, 5)):
        i = rng.randrange(len(tiles))
        t = tiles.pop(i)
        # random interior point with rational barycentric weights
        w = [F(rng.randint(1, 9)) for _ in range(3)]
        s = sum(w)
        q = Point(sum(wi * p.x for wi, p in zip(w, t.vertices)) / s,
                  sum(wi * p.y for wi, p in zip(w, t.vertices)) / s)
        for a, b in t.sides():
            tiles.append(Triangle(a, b, q))
    return TilingPatch(tuple(tiles), patch.region)


class TestRandomValidPatches:
    def test_audits_hold_everywhere(self):
        for seed in range(25):
            patch = random_refined_patch(seed)
            report = patch.validation
            assert report.ok, (seed, [v.describe() for v in report.violations])
            g = build_incidence(patch)
            assert graph_audit(g).ok, seed
            rec = eq1_audit(g)
            assert rec.get("vertex_identity").status.value == "pass", seed

    def test_oracles_agree(self):
        for seed in range(12):
            patch = random_refined_patch(seed + 100)
            g = build_incidence(patch)
            assert g.e == recount_edges(patch), seed
            got = sorted({(a, b) for a, b, _ in shared_side_pairs(g)})
            assert got == brute_force_shared(patch), seed

    def test_stretch_partition(self):
        for seed in range(12):
            patch = random_refined_patch(seed + 200)
            g = build_incidence(patch)
            stretches, _ = decompose_stretches(g)
            shared = shared_side_pairs(g)
            on_stretches = [it.side for s in stretches for it in side_items(s)]
            assert len(on_stretches) == len(set(on_stretches))
            assert len(on_stretches) == 3 * g.t - g.e_full - 2 * len(shared)


class TestRandomCorruptions:
    def test_vertex_nudge_never_validates(self):
        broken = 0
        for seed in range(30):
            rng = random.Random(seed)
            patch = random_refined_patch(seed)
            tiles = list(patch.tiles)
            i = rng.randrange(len(tiles))
            t = tiles[i]
            verts = list(t.vertices)
            j = rng.randrange(3)
            d = F(1, rng.randint(50, 500))
            verts[j] = Point(verts[j].x + d, verts[j].y - d / 2)
            try:
                tiles[i] = Triangle(*verts)
            except ValueError:
                continue  # nudge collapsed the triangle: fine
            report = validate_patch(TilingPatch(tuple(tiles), patch.region))
            assert not report.ok, f"seed {seed}: corrupted patch validated"
            broken += 1
        assert broken >= 20

    def test_tile_removal_never_validates(self):
        for seed in range(10):
            patch = random_refined_patch(seed + 300)
            tiles = list(patch.tiles)
            tiles.pop(random.Random(seed).randrange(len(tiles)))
            assert not validate_patch(TilingPatch(tuple(tiles), patch.region)).ok

    def test_tile_duplication_never_validates(self):
        for seed in range(10):
            patch = random_refined_patch(seed + 400)
            tiles = list(patch.tiles)
            tiles.append(tiles[random.Random(seed).randrange(len(tiles))])
            assert not validate_patch(TilingPatch(tuple(tiles), patch.region)).ok
