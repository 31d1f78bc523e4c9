import math
import random
from fractions import Fraction

import pytest

from tritile import (GeneratorError, Point, RecursiveSplitSpec,
                     ReflectionKind, TilingPatch, Triangle, TwoScaleSpec,
                     apply_affine, asymptotic_audit, build_incidence, congruence_check,
                     convex_polygon_on_circle, derive_region, extract_disk_patch,
                     gen_convex_triangulation, gen_recursive_split, gen_reflected_pair,
                     gen_two_scale_periodic, parse_tiling, reflection_classify, serialize_tiling,
                     shared_side_pairs, validate_patch, w_audit)
from tritile import cli
from tritile.cli import main
from tritile.stretches import min_margin

from conftest import rand_triangle
from fixtures import region_area

F = Fraction
P = Point.of
BASE = (P(0, 0), P(1, 0), P(0, 1))


class TestRecursiveSplit:
    def test_depth1_hand_values(self):
        patch = gen_recursive_split(RecursiveSplitSpec(BASE, F(2), 1))
        want = {
            Triangle(P(0, 0), P(1, 0), P(0, 1)),
            Triangle(P(-1, 0), P(2, -1), P(1, 0)),
            Triangle(P(2, -1), P(0, 2), P(0, 1)),
            Triangle(P(0, 2), P(-1, 0), P(0, 0)),
        }
        assert set(patch.tiles) == want
        assert sorted(t.area for t in patch.tiles) == [F(1, 2), 1, 1, 1]
        assert patch.tile_area_sum() == F(7, 2) == region_area(patch)

    @pytest.mark.parametrize("t", [F(3, 2), F(2), F(3)])
    @pytest.mark.parametrize("depth", [0, 1, 2, 7, 10])
    def test_tile_count_3n_plus_1(self, t, depth):
        patch = gen_recursive_split(RecursiveSplitSpec(BASE, t, depth))
        assert len(patch.tiles) == 3 * depth + 1
        assert validate_patch(patch).ok

    def test_depth0_is_base(self):
        patch = gen_recursive_split(RecursiveSplitSpec(BASE, F(2), 0))
        assert patch.tiles == (Triangle(*BASE),)

    def test_no_shared_sides(self):
        patch = gen_recursive_split(RecursiveSplitSpec(BASE, F(5, 2), 6))
        assert shared_side_pairs(build_incidence(patch)) == []

    def test_skewed_base(self):
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(-3, 1), P(5, 0), P(1, 6)), F(3, 2), 5))
        assert validate_patch(patch).ok

    def test_bad_specs_rejected(self):
        with pytest.raises(GeneratorError):
            RecursiveSplitSpec((P(0, 0), P(0, 1), P(1, 0)), F(2), 1)  # CW base
        with pytest.raises(GeneratorError):
            RecursiveSplitSpec(BASE, F(1), 1)
        with pytest.raises(GeneratorError):
            RecursiveSplitSpec(BASE, F(2), -1)

    def test_deterministic(self):
        a = gen_recursive_split(RecursiveSplitSpec(BASE, F(2), 4))
        b = gen_recursive_split(RecursiveSplitSpec(BASE, F(2), 4))
        assert a == b


class TestTwoScale:
    def test_example_gap_tile(self):
        patch = gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 1, 1))
        assert Triangle(P(F(3, 4), F(1, 2)), P(F(5, 4), F(1, 2)), P(1, 0)) \
            in patch.tiles

    def test_tile_count_and_validity(self):
        patch = gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 2))
        assert len(patch.tiles) == 6 * 3 * 2
        assert validate_patch(patch).ok

    def test_no_shared_sides(self):
        patch = gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 3))
        assert shared_side_pairs(build_incidence(patch)) == []

    def test_similarity_ratio_exactly_two(self):
        patch = gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 2, 2))
        up = patch.tiles[0].squared_sides()
        half = tuple(s / 4 for s in up)
        for t in patch.tiles:
            assert t.squared_sides() in (up, half)

    def test_down_is_point_reflection_of_up_half(self):
        # downs are 180-degree rotations of half-scale ups: congruent
        patch = gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 1, 1))
        up = patch.tiles[0]
        half = Triangle(P(0, 0), P(F(1, 2), 0), P(F(1, 4), F(1, 2)))
        down = next(t for t in patch.tiles
                    if t.squared_sides() == half.squared_sides())
        assert congruence_check(down, half)

    def test_deterministic(self):
        s = TwoScaleSpec(F(1), F(1), 2, 3)
        assert gen_two_scale_periodic(s) == gen_two_scale_periodic(s)

    def test_bad_specs(self):
        with pytest.raises(GeneratorError):
            TwoScaleSpec(F(0), F(1), 1, 1)
        with pytest.raises(GeneratorError):
            TwoScaleSpec(F(1), F(1), 0, 1)


class TestConvex:
    def test_fan_square(self):
        patch = gen_convex_triangulation(
            (P(0, 0), P(2, 0), P(2, 2), P(0, 2)), "fan")
        assert len(patch.tiles) == 2
        assert len(shared_side_pairs(build_incidence(patch))) == 1

    def test_polygon_on_circle_exact(self):
        for k in (3, 5, 8):
            poly = convex_polygon_on_circle(k, seed=k)
            assert len(poly) == k
            for p in poly:
                assert p.x ** 2 + p.y ** 2 == 1

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_random_split_valid_and_shared(self, k):
        for seed in range(4):
            poly = convex_polygon_on_circle(k, seed)
            patch = gen_convex_triangulation(poly, "random", seed)
            assert len(patch.tiles) == k - 2
            assert validate_patch(patch).ok
            assert shared_side_pairs(build_incidence(patch))

    def test_reproducible(self):
        poly = convex_polygon_on_circle(7, 42)
        a = gen_convex_triangulation(poly, "random", 42)
        b = gen_convex_triangulation(poly, "random", 42)
        assert a == b
        c = gen_convex_triangulation(poly, "random", 43)
        assert a != c  # a different seed picks different diagonals

    def test_nonconvex_rejected(self):
        with pytest.raises(GeneratorError, match="convex"):
            gen_convex_triangulation((P(0, 0), P(2, 0), P(1, 1), P(2, 2), P(0, 2)))

    def test_collinear_rejected(self):
        with pytest.raises(GeneratorError, match="convex"):
            gen_convex_triangulation((P(0, 0), P(1, 0), P(2, 0), P(1, 2)))


class TestReflectedPair:
    def test_midpoint_example(self):
        patch = gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)), "midpoint")
        assert Triangle(P(0, 0), P(4, 0), P(3, -3)) in patch.tiles
        assert patch.region is not None
        assert validate_patch(patch).ok
        x, y = P(0, 0), P(4, 0)
        assert reflection_classify(x, y, P(1, 3), P(3, -3)) \
            is ReflectionKind.MIDPOINT_XY

    def test_line_pair_is_valid_tiling(self):
        patch = gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)), "line")
        assert patch.region is not None
        assert validate_patch(patch).ok

    def test_bisector_pair_overlaps(self):
        patch = gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)), "bisector")
        assert patch.region is None
        assert not validate_patch(patch).ok

    def test_bisector_on_isoceles_degenerates(self):
        patch = gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(2, 3)), "bisector")
        assert patch.tiles[0] == patch.tiles[1]
        assert ("degenerate", "identity") in patch.metadata

    def test_equal_invariants_every_kind(self, rng):
        for _ in range(12):
            t = rand_triangle(rng, scalene=True)
            for kind in ("line", "midpoint", "bisector"):
                patch = gen_reflected_pair(t, kind)
                t1, t2 = patch.tiles
                assert t1.area == t2.area
                assert t1.perimeter() == t2.perimeter()
                assert congruence_check(t1, t2)

    def test_classification_recovers_kind(self, rng):
        kinds = {"line": ReflectionKind.LINE_XY,
                 "midpoint": ReflectionKind.MIDPOINT_XY,
                 "bisector": ReflectionKind.PERP_BISECTOR_XY}
        for _ in range(12):
            t = rand_triangle(rng, scalene=True)
            x, y, z = t.a, t.b, t.c
            for kind, want in kinds.items():
                patch = gen_reflected_pair(t, kind)
                other = next(tt for tt in patch.tiles if tt != t)
                zp = next(p for p in other.vertices if p not in (x, y))
                assert reflection_classify(x, y, z, zp) is want

    def test_unknown_kind(self):
        with pytest.raises(GeneratorError):
            gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)), "rotation")


def oracle_recursive(spec: RecursiveSplitSpec) -> TilingPatch:
    """The recursive split in Fraction arithmetic, each tile put in order
    by the Triangle constructor on rationals."""
    level = list(spec.base)
    tiles = [Triangle(*level)]
    for _ in range(spec.depth):
        nxt = [Point(level[(i + 1) % 3].x + spec.t * (level[i].x - level[(i + 1) % 3].x),
                     level[(i + 1) % 3].y + spec.t * (level[i].y - level[(i + 1) % 3].y))
               for i in range(3)]
        for i in range(3):
            tiles.append(Triangle(nxt[i], nxt[(i + 1) % 3], level[(i + 1) % 3]))
        level = nxt
    region = tuple(level) if _ccw(level) else tuple(reversed(level))
    meta = (("generator", "recursive"), ("t", str(spec.t)), ("depth", str(spec.depth)))
    return TilingPatch(tuple(tiles), region, meta)


def _ccw(pts) -> bool:
    (ax, ay), (bx, by), (cx, cy) = ((p.x, p.y) for p in pts)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0


def oracle_two_scale(spec: TwoScaleSpec) -> TilingPatch:
    """The two-scale pattern in Fraction arithmetic, in b and h, with the
    region derived from its tiles."""
    b, h = spec.b, spec.h

    def tri(ox, oy, coords):
        return Triangle(*(Point(ox + x, oy + y) for x, y in coords))

    up = ((F(0), F(0)), (b, F(0)), (b / 2, h))
    up_off = ((3 * b / 4, h / 2), (7 * b / 4, h / 2), (5 * b / 4, 3 * h / 2))
    down1 = ((3 * b / 4, h / 2), (5 * b / 4, h / 2), (b, F(0)))
    down2 = ((5 * b / 4, h / 2), (7 * b / 4, h / 2), (3 * b / 2, F(0)))

    def shifted(coords):
        return tuple((x + 3 * b / 4, y + h / 2) for x, y in coords)

    tiles = []
    for j in range(spec.n):
        oy = h * j
        for i in range(spec.m):
            ox = 3 * b / 2 * i
            for coords in (up, up_off, down1, down2, shifted(down1)):
                tiles.append(tri(ox, oy, coords))
            tiles.append(tri(ox - 3 * b / 2, oy, shifted(down2)))
    meta = (("generator", "twoscale"), ("b", str(b)), ("h", str(h)),
            ("m", str(spec.m)), ("n", str(spec.n)))
    patch = TilingPatch(tuple(tiles), None, meta)
    return patch.with_region(derive_region(patch))


def assert_matches_oracle(patch: TilingPatch, want: TilingPatch) -> None:
    """Same tiles, region, metadata and bytes as the oracle, and the grid
    handed over with the patch is the one its rationals give."""
    assert patch.tiles == want.tiles
    assert patch.region == want.region
    assert patch.metadata == want.metadata
    assert serialize_tiling(patch) == serialize_tiling(want)
    computed = TilingPatch(patch.tiles, patch.region, patch.metadata).grid
    assert (patch.grid.scale, patch.grid.tiles, patch.grid.region) == \
        (computed.scale, computed.tiles, computed.region)


RECURSIVE_BASES = [
    BASE,
    (P(F(-1, 3), F(2, 7)), P(F(5, 2), -1), P(F(1, 6), F(9, 4))),
    (P(-6, -4), P(-2, -5), P(-3, F(-1, 10))),
]


class TestLatticeGeneratorsAgainstOracles:
    """The lattice generators give what Fraction arithmetic gives."""

    @pytest.mark.parametrize("t", [F(2), F(3), F(5, 3), F(7, 2), F(101, 100)], ids=str)
    @pytest.mark.parametrize("base", range(len(RECURSIVE_BASES)))
    def test_recursive(self, t, base):
        for depth in range(16):
            spec = RecursiveSplitSpec(RECURSIVE_BASES[base], t, depth)
            assert_matches_oracle(gen_recursive_split(spec), oracle_recursive(spec))

    @pytest.mark.parametrize("b", [F(1), F(2), F(5, 7), F(433, 250), F(1, 1000)], ids=str)
    @pytest.mark.parametrize("h", [F(1), F(2), F(5, 7), F(433, 250), F(1, 1000)], ids=str)
    def test_two_scale(self, b, h):
        for m in range(1, 5):
            for n in range(1, 5):
                spec = TwoScaleSpec(b, h, m, n)
                assert_matches_oracle(gen_two_scale_periodic(spec), oracle_two_scale(spec))


class TestGridHandOver:
    """Every patch holds its grid from the moment it is made, through a
    full audit, its disk piece included: for every family, a parsed patch,
    an `apply_affine` image and a patch built from rational triangles.
    ``TilingPatch`` has no lazy route to a grid."""

    @pytest.mark.parametrize("family", [
        lambda: gen_recursive_split(RecursiveSplitSpec(RECURSIVE_BASES[1], F(5, 3), 6)),
        lambda: gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 3)),
        lambda: gen_convex_triangulation(convex_polygon_on_circle(7, 7), "random", 7),
        lambda: gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)), "midpoint"),
        lambda: parse_tiling(serialize_tiling(gen_two_scale_periodic(TwoScaleSpec(F(5, 7), F(3, 11), 3, 2)))),
        lambda: apply_affine(gen_recursive_split(RecursiveSplitSpec(RECURSIVE_BASES[1], F(5, 3), 4)),
                             ((F(0), F(-1, 3)), (F(1, 3), F(0))), (F(1, 5), F(-2, 7))),
        lambda: TilingPatch(gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 3)).tiles),
    ], ids=["recursive", "twoscale", "convex", "pair", "parsed", "affine", "rational"])
    def test_lcm_route_runs(self, family):
        assert "grid" not in vars(TilingPatch)
        patch = family()
        assert "grid" in patch.__dict__
        g = build_incidence(patch)
        w_audit(g)
        min_margin(patch)
        asymptotic_audit(patch, [])
        x = patch.tiles[0]
        centre = Point((x.a.x + x.b.x + x.c.x) / 3, (x.a.y + x.b.y + x.c.y) / 3)
        piece = extract_disk_patch(patch, centre, F(1, 10)).patch
        assert "grid" in piece.__dict__
        asymptotic_audit(piece, [])

    def test_cli_generate_runs_no_lcm_route(self, monkeypatch, tmp_path, capsys):
        """Each patch that `generate` writes holds its grid."""
        held = []
        write = cli.serialize_tiling
        monkeypatch.setattr(cli, "serialize_tiling",
                            lambda patch: held.append("grid" in patch.__dict__) or write(patch))
        for argv in (["twoscale", "--b", "2", "--h", "433/250", "--m", "6", "--n", "6"],
                     ["recursive", "--depth", "100"], ["convex", "--k", "9", "--seed", "4"],
                     *(["pair", "--kind", kind] for kind in ("line", "midpoint", "bisector"))):
            assert main(["generate", *argv, "-o", str(tmp_path / "out.til")]) == 0
        assert held == [True] * 6


class TestNoFloatFunctions:
    """Seeded output reads only ``Random.random()``: no libm function and
    no float-drawing ``Random`` method runs in any generator."""

    def test_generators_run_without_them(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a generator called a float function")

        monkeypatch.setattr(math, "tan", forbidden)
        monkeypatch.setattr(random.Random, "uniform", forbidden)
        monkeypatch.setattr(random.Random, "randrange", forbidden)
        gen_recursive_split(RecursiveSplitSpec(RECURSIVE_BASES[1], F(5, 3), 6))
        gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 3))
        for k in (3, 4, 9, 25):
            poly = convex_polygon_on_circle(k, k)
            gen_convex_triangulation(poly, "fan")
            gen_convex_triangulation(poly, "random", k)
        convex_polygon_on_circle(6)
        for kind in ("line", "midpoint", "bisector"):
            gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(2, 3)), kind)
