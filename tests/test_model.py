from fractions import Fraction

import pytest

from tritile import (Point, TilingParseError, TilingPatch, Triangle,
                     apply_affine, parse_tiling, serialize_tiling,
                     side_length_range, validate_patch)

from conftest import rand_triangle

F = Fraction
P = Point.of

SQUARE = TilingPatch(
    (Triangle(P(0, 0), P(1, 0), P(1, 1)), Triangle(P(0, 0), P(1, 1), P(0, 1))),
    (P(0, 0), P(1, 0), P(1, 1), P(0, 1)),
    (("name", "unit square"),),
)


class TestParse:
    def test_minimal_file(self):
        patch = parse_tiling(b"#TILING 1\ntri 0 0 1 0 0 1\n")
        assert len(patch.tiles) == 1
        assert patch.region is None

    def test_fractional_coordinates_roundtrip(self):
        text = b"#TILING 1\ntri 1/2 1 -3/4 0 0 -2/3\n"
        patch = parse_tiling(text)
        assert parse_tiling(serialize_tiling(patch)) == patch

    def test_region_and_meta(self):
        patch = parse_tiling(
            b"#TILING 1\nregion 3 0 0 2 0 0 2\nmeta author someone else\n"
            b"tri 0 0 2 0 0 2\n")
        assert patch.region == (P(0, 0), P(2, 0), P(0, 2))
        assert patch.metadata == (("author", "someone else"),)

    def test_comments_and_blank_lines(self):
        patch = parse_tiling(
            b"#TILING 1\n# a comment\n\ntri 0 0 1 0 0 1  # trailing\n")
        assert len(patch.tiles) == 1

    def test_degenerate_triangle_line_number(self):
        with pytest.raises(TilingParseError, match="line 3: degenerate"):
            parse_tiling(b"#TILING 1\ntri 0 0 1 0 0 1\ntri 0 0 1 0 2 0\n")

    def test_malformed_rational(self):
        with pytest.raises(TilingParseError, match="line 2: malformed rational"):
            parse_tiling(b"#TILING 1\ntri 0 0 1.5 0 0 1\n")

    @pytest.mark.parametrize("line, message", [
        ("tri \u0660 0 1 0 0 1", "malformed rational"),          # Arabic-Indic zero
        ("tri 0 0 \uff11/\uff12 0 0 1", "malformed rational"),   # fullwidth 1/2
        ("tri 0 0 \u0663 0 0 1", "malformed rational"),          # Arabic-Indic three
        ("region +3 0 0 2 0 0 2", "malformed vertex count"),
        ("region 0_3 0 0 2 0 0 2", "malformed vertex count"),
        ("region \u0663 0 0 2 0 0 2", "malformed vertex count"),
    ])
    def test_numbers_are_ascii_digits(self, line, message):
        data = f"#TILING 1\nmeta note x\n{line}\ntri 0 0 2 0 0 2\n".encode("utf-8")
        with pytest.raises(TilingParseError, match=f"line 3: {message}"):
            parse_tiling(data)

    def test_zero_denominator(self):
        with pytest.raises(TilingParseError, match="malformed rational"):
            parse_tiling(b"#TILING 1\ntri 0 0 1/0 0 0 1\n")

    def test_bad_magic(self):
        with pytest.raises(TilingParseError, match="line 1"):
            parse_tiling(b"#TILING 2\ntri 0 0 1 0 0 1\n")

    def test_unknown_directive(self):
        with pytest.raises(TilingParseError, match="line 2: unknown directive"):
            parse_tiling(b"#TILING 1\nquad 0 0 1 0 1 1 0 1\n")

    def test_wrong_arity(self):
        with pytest.raises(TilingParseError, match="line 2"):
            parse_tiling(b"#TILING 1\ntri 0 0 1 0\n")

    def test_duplicate_region(self):
        with pytest.raises(TilingParseError, match="duplicate region"):
            parse_tiling(b"#TILING 1\nregion 3 0 0 2 0 0 2\nregion 3 0 0 2 0 0 2\n")


class TestSerialize:
    def test_one_tile_two_lines(self):
        data = serialize_tiling(TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),)))
        assert data == b"#TILING 1\ntri 0 0 1 0 0 1\n"

    def test_region_line_precedes_tris(self):
        lines = serialize_tiling(SQUARE).decode().splitlines()
        assert lines[1].startswith("region 4 ")
        assert lines[2].startswith("meta name ")
        assert lines[3].startswith("tri ")

    def test_lowest_terms_and_slash_form(self):
        patch = TilingPatch((Triangle(P(F(2, 4), 0), P(1, 0), P(0, F(3, 1))),))
        data = serialize_tiling(patch).decode()
        assert "1/2" in data and "3/1" not in data and "2/4" not in data

    def test_parse_serialize_identity(self):
        assert parse_tiling(serialize_tiling(SQUARE)) == SQUARE

    def test_serialize_parse_idempotent(self):
        messy = b"#TILING 1\n# comment\ntri 0 0  2/4 0   0 1\n"
        canon = serialize_tiling(parse_tiling(messy))
        assert serialize_tiling(parse_tiling(canon)) == canon


class TestAffine:
    def test_identity(self):
        m = ((F(1), F(0)), (F(0), F(1)))
        assert apply_affine(SQUARE, m) == TilingPatch(SQUARE.tiles, SQUARE.region,
                                                      SQUARE.metadata)

    def test_uniform_scale_quadruples_areas(self):
        m = ((F(2), F(0)), (F(0), F(2)))
        scaled = apply_affine(SQUARE, m)
        assert scaled.tile_area_sum() == 4 * SQUARE.tile_area_sum()

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            apply_affine(SQUARE, ((F(1), F(2)), (F(2), F(4))))

    def test_negative_determinant_keeps_ccw(self):
        m = ((F(-1), F(0)), (F(0), F(1)))
        flipped = apply_affine(SQUARE, m)
        for t in flipped.tiles:
            assert t.area > 0
        assert flipped.region_area() > 0

    def test_shear_preserves_validity(self):
        m = ((F(1), F(3, 2)), (F(0), F(1)))
        assert validate_patch(apply_affine(SQUARE, m)).ok

    def test_shear_preserves_invalidity(self, rng):
        bad = TilingPatch((Triangle(P(0, 0), P(4, 0), P(2, 3)),
                           Triangle(P(0, 2), P(4, 2), P(2, -1))))
        m = ((F(2), F(1)), (F(1), F(1)))
        kinds = {v.kind for v in validate_patch(apply_affine(bad, m)).violations}
        assert "OVERLAP" in kinds


class TestSideLengthRange:
    def test_unit_right_triangle(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),))
        lo, hi = side_length_range(patch, 40)
        assert lo.contains(F(1))
        assert hi.lo ** 2 <= 2 <= hi.hi ** 2
        assert lo.width * 2 ** 40 <= lo.midpoint

    def test_scaling_homogeneity(self):
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),))
        scaled = apply_affine(patch, ((F(3), F(0)), (F(0), F(3))))
        lo1, hi1 = side_length_range(patch, 50)
        lo3, hi3 = side_length_range(scaled, 50)
        # both enclose the true endpoints 3*1 and 3*sqrt(2)
        assert lo3.contains(F(3))
        assert hi3.lo ** 2 <= 18 <= hi3.hi ** 2
        assert abs(lo3.midpoint - 3 * lo1.midpoint) <= lo3.width + 3 * lo1.width
        assert abs(hi3.midpoint - 3 * hi1.midpoint) <= hi3.width + 3 * hi1.width

    def test_empty_patch_rejected(self):
        with pytest.raises(ValueError):
            side_length_range(TilingPatch(()), 10)

    def test_random_patch_bounds_every_side(self, rng):
        tiles = tuple(rand_triangle(rng) for _ in range(5))
        lo, hi = side_length_range(TilingPatch(tiles), 30)
        for t in tiles:
            for s in t.squared_sides():
                assert lo.lo ** 2 <= s <= hi.hi ** 2
