import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import tritile.geometry
from tritile import (Point, TilingParseError, TilingPatch, Triangle,
                     apply_affine, parse_tiling, serialize_tiling,
                     side_length_range, validate_patch)

from tritile.model import DegenerateRow, Grid
from tritile.radicals import START_BITS, _bounds

from conftest import rand_triangle
from fixtures import apply_affine_rational, lcm_grid, region_area
from test_random_patches import random_refined_patch

GOLDEN = Path(__file__).parent / "golden"

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


def _first_fault(*lines: str) -> str:
    with pytest.raises(TilingParseError) as info:
        parse_tiling("\n".join(("#TILING 1",) + lines) + "\n")
    return str(info.value)


class TestFirstFault:
    """The parse reads every line before it puts the triangles in order on
    the grid, yet the fault on the earliest line is the one reported."""

    def test_degenerate_before_malformed_rational(self):
        assert _first_fault("tri 0 0 1 0 0 1", "tri 0 0 1 1 2 2", "meta k v",
                            "tri 0 0 1.5 0 0 1") == "line 3: degenerate triangle"

    def test_malformed_rational_before_degenerate(self):
        assert _first_fault("tri 0 0 1 0 0 1", "tri 0 0 1.5 0 0 1", "meta k v",
                            "tri 0 0 1 1 2 2") == "line 3: malformed rational '1.5'"

    @pytest.mark.parametrize("region", [
        "region 3 0 0 2 0 x 2", "region 2 0 0 2 0", "region 3 0 0 2 0 0 2/0"])
    def test_bad_region_after_degenerate(self, region):
        assert _first_fault("tri 0 0 1 1 2 2", region) == "line 2: degenerate triangle"

    def test_duplicate_region_after_degenerate(self):
        assert _first_fault("region 3 0 0 2 0 0 2", "tri 0 0 1 1 2 2",
                            "region 3 0 0 2 0 0 2") == "line 3: degenerate triangle"

    def test_zero_denominator_text(self):
        assert (_first_fault("tri 0 0 1 0 0 1", "tri 0 0 1/0 0 0 1")
                == "line 3: malformed rational '1/0' (zero denominator)")


def _parsed_corpus():
    for path in sorted(GOLDEN.glob("*.til")):
        yield pytest.param(path.read_bytes(), id=path.stem)
    for seed in range(50):
        yield pytest.param(serialize_tiling(random_refined_patch(seed)), id=f"refined-{seed}")
    for name, text in [
        ("lowest-terms", "tri 0 0 2/4 0 0 -6/4"),
        ("negative", "tri -1/3 -2 0 -5/6 -7/9 -1/2"),
        ("region-only-denominators", "region 3 -1/7 -1/11 2 0 0 2\ntri 0 0 1 0 0 1"),
        ("empty", ""),
    ]:
        yield pytest.param(f"#TILING 1\n{text}\n".encode(), id=name)


class TestParsedGrid:
    """A parsed patch gets its grid from the parse; a patch built in code
    computes it from its rational tiles.  The two must agree."""

    @pytest.mark.parametrize("data", _parsed_corpus())
    def test_parsed_grid_equals_the_computed_one(self, data):
        patch = parse_tiling(data)
        built = TilingPatch(patch.tiles, patch.region, patch.metadata)
        assert patch == built
        assert patch.grid == built.grid == lcm_grid(patch)
        assert all(type(c) is int for t in patch.grid.tiles for p in t.vertices
                   for c in (p.x, p.y))
        assert all(type(c) is Fraction for t in patch.tiles for p in t.vertices
                   for c in (p.x, p.y))
        # the rational tiles are already in the order the constructor gives
        assert tuple(Triangle(*t.vertices) for t in patch.tiles) == patch.tiles
        assert patch.tile_area_sum() == sum((t.area for t in patch.tiles), Fraction(0))

    @pytest.mark.parametrize("text, scale", [
        ("tri 0 0 2/4 0 0 -6/4", 2),
        ("tri -1/3 -2 0 -5/6 -7/9 -1/2", 18),
        ("region 3 -1/7 -1/11 2 0 0 2\ntri 0 0 1 0 0 1", 77),
        ("", 1),
    ])
    def test_scale_is_the_lcm_of_the_lowest_terms_denominators(self, text, scale):
        patch = parse_tiling(f"#TILING 1\n{text}\n")
        assert patch.grid.scale == scale

    @pytest.mark.parametrize("scale, rows, region", [
        (6, [(0, 0, 6, 0, 0, 6), (6, 0, 6, 6, 0, 6)], (0, 0, 6, 0, 6, 6, 0, 6)),
        (12, [(-4, 8, 2, -6, 10, 0)], None),
        (7, [(3, 1, 0, 0, 2, 5)], (0, 0, 1, 0, 0, 1)),
        (5, [], None),
    ])
    def test_from_grid_cuts_the_scale_to_the_lcm(self, scale, rows, region):
        patch = TilingPatch.from_grid(scale, rows, region, (("k", "v"),))
        pt = lambda x, y: Point(F(x, scale), F(y, scale))  # noqa: E731
        built = TilingPatch(
            tuple(Triangle(pt(*r[:2]), pt(*r[2:4]), pt(*r[4:])) for r in rows),
            None if region is None else tuple(map(pt, region[::2], region[1::2])),
            (("k", "v"),))
        assert patch == built
        assert patch.grid == built.grid == lcm_grid(patch)
        assert patch.grid.scale == math.lcm(*(c.denominator for t in built.tiles for p in t.vertices
                                              for c in (p.x, p.y)), 1)

    def test_from_grid_names_the_degenerate_row(self):
        with pytest.raises(DegenerateRow) as exc:
            TilingPatch.from_grid(2, [(0, 0, 2, 0, 0, 2), (0, 0, 1, 1, 2, 2)])
        assert exc.value.index == 1

    def test_one_orientation_test_per_tile_for_patch_and_grid(self, monkeypatch):
        data = (GOLDEN / "twoscale-2.til").read_bytes()
        calls = []
        cross = tritile.geometry.cross
        monkeypatch.setattr(tritile.geometry, "cross",
                            lambda *args: calls.append(args) or cross(*args))
        grid = parse_tiling(data).grid
        assert len(calls) == len(grid.tiles)


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

    @pytest.mark.parametrize("entry, writable", [
        (("k", "a#b"), False), (("k", " x"), False), (("k", "x "), False),
        (("k#", "v"), False), (("k", "x\ny"), False), (("", "v"), False),
        (("k y", "v"), False), (("k", "a  b"), True),
    ])
    def test_metadata_that_would_not_read_back_is_rejected(self, entry, writable):
        patch = TilingPatch(SQUARE.tiles, None, (entry,))
        if writable:
            assert parse_tiling(serialize_tiling(patch)) == patch
        else:
            with pytest.raises(ValueError, match=re.escape(repr(entry))):
                serialize_tiling(patch)


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
        assert region_area(flipped) > 0

    def test_shear_preserves_validity(self):
        m = ((F(1), F(3, 2)), (F(0), F(1)))
        assert validate_patch(apply_affine(SQUARE, m)).ok

    def test_shear_preserves_invalidity(self, rng):
        bad = TilingPatch((Triangle(P(0, 0), P(4, 0), P(2, 3)),
                           Triangle(P(0, 2), P(4, 2), P(2, -1))))
        m = ((F(2), F(1)), (F(1), F(1)))
        kinds = {v.kind for v in validate_patch(apply_affine(bad, m)).violations}
        assert "OVERLAP" in kinds

    @pytest.mark.parametrize("m, v", [
        (((F(0), F(-1)), (F(1), F(0))), (F(0), F(0))),
        (((F(-1), F(0)), (F(0), F(1))), (F(0), F(0))),
        (((F(3), F(0)), (F(0), F(3))), (F(0), F(0))),
        (((F(1, 7), F(0)), (F(0), F(1, 7))), (F(0), F(0))),
        (((F(1), F(0)), (F(0), F(1))), (F(1, 3), F(-2, 5))),
    ], ids=["quarter-turn", "reflection", "x3", "x1/7", "shift"])
    def test_int_route_matches_the_rational_oracle(self, m, v):
        """On every golden input: the patch equals the one built from mapped
        rational triangles, and its grid, handed over by `from_grid`, equals
        the one computed from those.  Both patches, the parsed one too, hold
        their grid from the moment they are made."""
        for path in sorted(GOLDEN.glob("*.til")):
            patch = parse_tiling(path.read_bytes())
            assert "grid" in patch.__dict__, path.name
            mapped = apply_affine(patch, m, v)
            assert "grid" in mapped.__dict__, path.name
            want = apply_affine_rational(patch, m, v)
            assert "grid" in want.__dict__, path.name
            assert mapped == want, path.name
            assert mapped.grid == lcm_grid(want), path.name


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


class TestGridRoots:
    """The grid's integer roots of squared sides bound a signed sum of
    side lengths exactly as ``radicals._bounds`` does."""

    @staticmethod
    def radicand(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randrange(1, 1000) ** 2                # perfect square
        if kind == 1:
            return rng.getrandbits(400) | 1 << 399            # 400 bits
        if kind == 2:
            return rng.getrandbits(400) ** 2 // rng.randrange(1, 9) ** 2
        return rng.randrange(0, 200)

    def test_bounds_equal_radicals_bounds(self):
        rng = random.Random(18)
        grid = Grid(1, (), None)
        for _ in range(2000):
            qs = [self.radicand(rng) for _ in range(3)]
            if rng.random() < 0.2:
                qs[1] = qs[0]                                 # equal radicands
            terms = [(q, rng.choice((1, -1))) for q in qs]
            assert grid.bounds(terms) == _bounds(terms, START_BITS)[:2], terms

    def test_one_isqrt_per_radicand(self, monkeypatch):
        calls = []
        isqrt = math.isqrt
        monkeypatch.setattr(math, "isqrt", lambda m: calls.append(m) or isqrt(m))
        grid = Grid(1, (), None)
        for terms in (((5, 1), (8, 1), (13, -1)), ((13, -1), (5, -1), (9, 1)), ((8, 1),) * 3):
            grid.bounds(terms)
        assert sorted(calls) == [q << 2 * START_BITS for q in (5, 8, 9, 13)]
        assert grid.roots[9] == (3 << START_BITS,) * 2
