import random
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (Point, RecursiveSplitSpec, RegionError, TilingPatch, Triangle,
                     apply_affine, derive_region, gen_recursive_split, parse_tiling,
                     validate_patch)
from tritile.validate import (DISCONNECTED, EMPTY, HOLE,
                              NOT_SIMPLE, OVERLAP, REGION_INVALID,
                              REGION_MISMATCH, UNMATCHED_EDGE, elide_collinear,
                              point_in_polygon)

import fixtures
from conftest import rand_point

F = Fraction
P = Point.of

GOLDEN = Path(__file__).parent / "golden"


def kinds(patch):
    return {v.kind for v in validate_patch(patch).violations}


class TestValid:
    @pytest.mark.parametrize("make", [
        fixtures.square_diag, fixtures.rect_l_shape, fixtures.notched_split,
        fixtures.offset_quad,
    ])
    def test_fixtures_validate(self, make):
        report = validate_patch(make())
        assert report.ok and not report.violations

    def test_single_triangle(self):
        patch = TilingPatch((Triangle(P(0, 0), P(4, 0), P(1, 3)),))
        report = validate_patch(patch)
        assert report.ok
        assert report.derived_region == (P(0, 0), P(4, 0), P(1, 3))

    def test_region_with_collinear_vertex(self, rng):
        # a region vertex inside a straight boundary run is legal
        patch = TilingPatch(
            (Triangle(P(0, 0), P(2, 0), P(2, 2)), Triangle(P(0, 0), P(2, 2), P(0, 2))),
            (P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)))
        report = validate_patch(patch)
        assert report.ok, [v.describe() for v in report.violations]

        # every valid golden and fixture, its region with 1-4 collinear
        # vertices added and its start rotated: same verdict, same derived
        # region, and with a tile taken out the same unmatched edges
        patches = [parse_tiling((GOLDEN / f"{name}.til").read_text())
                   for name in ("twoscale-2", "recursive-4", "convex-6")]
        patches += [make() for make in (fixtures.square_diag, fixtures.rect_l_shape,
                                        fixtures.notched_split, fixtures.offset_quad)]
        for patch in patches:
            bare = validate_patch(patch.with_region(None)).derived_region
            region = list(bare)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(region))
                a, b = region[i], region[(i + 1) % len(region)]
                region.insert(i + 1, a + (b - a).scale(F(rng.randint(1, 15), 16)))
            start = rng.randrange(len(region))
            region = tuple(region[start:] + region[:start])
            report = validate_patch(patch.with_region(region))
            assert report.ok, [v.describe() for v in report.violations]
            assert report.derived_region == bare

            tiles = list(patch.tiles)
            del tiles[rng.randrange(len(tiles))]

            def unmatched(poly):
                return [v.describe() for v in validate_patch(TilingPatch(tuple(tiles), poly)).violations
                        if v.kind == UNMATCHED_EDGE]
            assert unmatched(region) == unmatched(bare)


class TestInvalid:
    def test_empty(self):
        assert kinds(TilingPatch(())) == {EMPTY}

    def test_crossing_overlap(self):
        patch = TilingPatch((Triangle(P(0, 0), P(4, 0), P(2, 3)),
                             Triangle(P(0, 2), P(4, 2), P(2, -1))))
        assert OVERLAP in kinds(patch)

    def test_stacked_identical(self):
        t = Triangle(P(0, 0), P(4, 0), P(2, 3))
        assert kinds(TilingPatch((t, Triangle(P(0, 0), P(4, 0), P(2, 3))))) == {OVERLAP}

    def test_contained_tile(self):
        patch = TilingPatch((Triangle(P(0, 0), P(10, 0), P(5, 8)),
                             Triangle(P(4, 2), P(6, 2), P(5, 3))))
        assert [v.describe() for v in validate_patch(patch).violations] == [
            "OVERLAP component through (4, 2) nested inside another"]

    def test_partial_side_stack(self):
        # second tile rests on part of the first tile's side, same side
        patch = TilingPatch((Triangle(P(0, 0), P(4, 0), P(2, 3)),
                             Triangle(P(1, 0), P(2, 0), P(2, 1))))
        assert OVERLAP in kinds(patch)

    def test_missing_tile_unmatched_edge(self):
        c = P(F(1, 2), F(1, 2))
        patch = TilingPatch(
            (Triangle(P(0, 0), P(1, 0), c), Triangle(P(1, 0), P(1, 1), c),
             Triangle(P(1, 1), P(0, 1), c)),
            (P(0, 0), P(1, 0), P(1, 1), P(0, 1)))
        assert UNMATCHED_EDGE in kinds(patch)

    def test_hole(self):
        assert HOLE in kinds(fixtures.annulus())

    def test_disconnected(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),
                             Triangle(P(9, 0), P(10, 0), P(9, 1))))
        assert kinds(patch) == {DISCONNECTED}

    def test_island_inside_hole_is_disconnected(self):
        # the inner triangle and the outer ring of a depth-2 recursive
        # split: two components, neither overlapping the other
        patch = gen_recursive_split(RecursiveSplitSpec((P(0, 0), P(1, 0), P(0, 1)), F(2), 2))
        patch = TilingPatch(tuple(patch.tiles[i] for i in (0, 4, 5, 6)))
        assert [v.describe() for v in validate_patch(patch).violations] == [
            "HOLE interior boundary cycle through (-1, 0)",
            "DISCONNECTED 2 separate components"]

    def test_pinched_union(self):
        assert kinds(fixtures.bowtie()) == {NOT_SIMPLE}

    def test_region_not_ccw(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),),
                            (P(0, 0), P(0, 1), P(1, 0)))
        assert REGION_INVALID in kinds(patch)

    def test_region_mismatch(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),),
                            (P(0, 0), P(2, 0), P(0, 2)))
        assert REGION_MISMATCH in kinds(patch)

    def test_gap_between_tiles(self):
        # two tiles of the square-diagonal split pulled apart
        patch = TilingPatch(
            (Triangle(P(0, 0), P(1, 0), P(1, 1)), Triangle(P(2, 0), P(3, 1), P(2, 1))),
            (P(0, 0), P(1, 0), P(1, 1), P(0, 1)))
        got = kinds(patch)
        assert got & {UNMATCHED_EDGE, REGION_MISMATCH, DISCONNECTED}


class TestInvariance:
    def test_verdict_stable_under_reorder_and_affine(self, rng):
        cases = [fixtures.square_diag(), fixtures.rect_l_shape(),
                 fixtures.notched_split(), fixtures.bowtie(), fixtures.annulus()]
        m = ((F(2), F(1)), (F(1), F(1)))  # det 1
        for patch in cases:
            want_ok = validate_patch(patch).ok
            tiles = list(patch.tiles)
            random.Random(5).shuffle(tiles)
            shuffled = TilingPatch(tuple(tiles), patch.region, patch.metadata)
            assert validate_patch(shuffled).ok == want_ok
            mapped = apply_affine(patch, m, (F(3), F(-2)))
            assert validate_patch(mapped).ok == want_ok

    def test_area_sum_equals_region_area(self):
        for make in (fixtures.square_diag, fixtures.rect_l_shape,
                     fixtures.notched_split):
            patch = make()
            report = validate_patch(patch)
            area = fixtures.region_area(patch) if patch.region else None
            assert patch.tile_area_sum() == fixtures.polygon_area(report.derived_region)
            if area is not None:
                assert patch.tile_area_sum() == area


class TestDeriveRegion:
    def test_single_triangle(self):
        got = derive_region(TilingPatch((Triangle(P(0, 0), P(4, 0), P(1, 3)),)))
        assert got == (P(0, 0), P(4, 0), P(1, 3))

    def test_collinear_break_points_elided(self):
        got = derive_region(fixtures.square_diag().with_region(None))
        assert got == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_split_region_side_elided(self):
        # two stacked split squares: midpoints on the outer boundary vanish
        tiles = list(fixtures.square_diag().tiles)
        shifted = apply_affine(fixtures.square_diag(), ((F(1), F(0)), (F(0), F(1))),
                               (F(0), F(1)))
        patch = TilingPatch(tuple(tiles) + shifted.tiles)
        assert derive_region(patch) == (P(0, 0), P(1, 0), P(1, 2), P(0, 2))

    def test_hole_raises(self):
        with pytest.raises(RegionError) as err:
            derive_region(fixtures.annulus())
        assert err.value.kind == HOLE

    def test_disconnected_raises(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),
                             Triangle(P(9, 0), P(10, 0), P(9, 1))))
        with pytest.raises(RegionError) as err:
            derive_region(patch)
        assert err.value.kind == DISCONNECTED

    def test_pinch_raises(self):
        with pytest.raises(RegionError) as err:
            derive_region(fixtures.bowtie())
        assert err.value.kind == NOT_SIMPLE

    @pytest.mark.parametrize("region", [
        (P(0, 0), P(2, 0), P(2, 2), P(0, 2)),
        (P(0, 0), P(F(1, 3), 0), P(1, 0), P(1, 1), P(0, 1)),
        (P(0, 0), P(1, 1), P(1, 0), P(0, 1)),
    ], ids=["mismatch", "finer-vertex", "not-simple"])
    def test_stated_region_does_not_count(self, region):
        patch = fixtures.square_diag().with_region(region)
        assert derive_region(patch) == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_error_lists_only_the_unions_violations(self):
        bare = fixtures.annulus()
        stated = bare.with_region((P(0, 0), P(4, 0), P(4, 4), P(0, 4)))
        assert UNMATCHED_EDGE in {v.kind for v in stated.validation.violations}
        errors = []
        for patch in (bare, stated):
            with pytest.raises(RegionError) as err:
                derive_region(patch)
            errors.append((err.value.kind, str(err.value)))
        assert errors[0] == errors[1] == (HOLE, "HOLE: HOLE interior boundary cycle through (1, 1)")

    def test_reads_the_cached_report(self, monkeypatch):
        import tritile.validate
        patch = fixtures.rect_l_shape()
        assert patch.region is not None and patch.validation.ok
        calls = []
        real = tritile.validate.validate_patch
        monkeypatch.setattr(tritile.validate, "validate_patch",
                            lambda p: calls.append(p) or real(p))
        assert derive_region(patch) == patch.validation.derived_region
        assert calls == []


class TestHelpers:
    def test_point_in_polygon(self):
        poly = (P(0, 0), P(4, 0), P(4, 4), P(0, 4))
        assert point_in_polygon(P(1, 1), poly) == 1
        assert point_in_polygon(P(5, 1), poly) == -1
        assert point_in_polygon(P(4, 2), poly) == 0
        assert point_in_polygon(P(4, 4), poly) == 0

    def test_point_in_polygon_random_triangle(self, rng):
        for _ in range(30):
            try:
                t = Triangle(rand_point(rng), rand_point(rng), rand_point(rng))
            except ValueError:
                continue
            poly = t.vertices
            centroid = P(sum(p.x for p in poly) / 3, sum(p.y for p in poly) / 3)
            assert point_in_polygon(centroid, poly) == 1

    def test_elide_collinear(self):
        poly = (P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2))
        assert elide_collinear(poly) == (P(0, 0), P(2, 0), P(2, 2), P(0, 2))
