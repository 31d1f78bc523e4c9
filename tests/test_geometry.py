from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (LengthExpr, Orientation, Point, ReflectionKind,
                     Triangle, congruence_check, equal_invariant_apexes,
                     orientation, parse_rational, parse_tiling, point_on_segment_interior,
                     reflection_classify, triangle_metrics)
from tritile.geometry import (cross, format_rational, reflect_across_bisector,
                              reflect_across_line, reflect_through_midpoint)

from conftest import dec, expr_decimal, rand_point, rand_triangle, shoelace
from fixtures import segment_sq_dist

F = Fraction
P = Point.of
GOLDEN = Path(__file__).parent / "golden"


class TestOrientation:
    @pytest.mark.parametrize("a,b,c,want", [
        (P(0, 0), P(1, 0), P(0, 1), Orientation.CCW),
        (P(0, 0), P(1, 0), P(2, 0), Orientation.COLLINEAR),
        (P(0, 0), P(0, 1), P(1, 0), Orientation.CW),
    ])
    def test_examples(self, a, b, c, want):
        assert orientation(a, b, c) is want

    def test_antisymmetric_under_swaps(self, rng):
        for _ in range(60):
            a, b, c = (rand_point(rng) for _ in range(3))
            o = orientation(a, b, c)
            assert orientation(b, a, c).value == -o.value
            assert orientation(a, c, b).value == -o.value
            assert orientation(c, b, a).value == -o.value


class TestPointIsAPair:
    """A point is its (x, y) tuple: hash, equality and order are the
    tuple's on every vertex of every golden input, rational and on the
    grid, and the arithmetic stays vector arithmetic."""

    @pytest.fixture(scope="class")
    def vertex_sets(self):
        out = []
        for path in sorted(GOLDEN.glob("*.til")):
            patch = parse_tiling(path.read_bytes())
            for tiles, region in ((patch.tiles, patch.region), (patch.grid.tiles, patch.grid.region)):
                out.append((path.name, tiles, sorted({p for t in tiles for p in t.vertices}
                                                     | set(region or ()), key=repr)))
        return out

    def test_hash_equality_and_order_are_the_tuples(self, vertex_sets):
        for name, _, pts in vertex_sets:
            for p in pts:
                pair = (p.x, p.y)
                assert hash(p) == hash(pair) and p == pair and Point(*pair) == p, name
                for q in pts:
                    assert (p == q) == (pair == (q.x, q.y)), name
                    assert (p < q) == (pair < (q.x, q.y)), name
            assert sorted(pts) == sorted(pts, key=lambda p: (p.x, p.y)), name

    def test_tiles_start_at_their_smallest_vertex(self, vertex_sets):
        for name, tiles, _ in vertex_sets:
            for t in tiles:
                assert t.a == min(t.vertices) and cross(*t.vertices) > 0, name

    def test_fields_are_read_only(self):
        p = P(1, 2)
        with pytest.raises(AttributeError):
            p.x = F(3)
        assert p == (1, 2)

    def test_vector_arithmetic(self, vertex_sets):
        for name, _, pts in vertex_sets:
            for p, q in zip(pts, pts[1:]):
                assert p + q == Point(p.x + q.x, p.y + q.y), name
                assert p - q == Point(p.x - q.x, p.y - q.y), name
                assert p.scale(F(-2, 3)) == Point(p.x * F(-2, 3), p.y * F(-2, 3)), name
                assert type(p + q) is type(p - q) is Point and len(p + q) == 2, name
        assert repr(P(F(1, 2), -3)) == "(1/2, -3)"


class TestOnSegment:
    def test_midpoint(self):
        assert point_on_segment_interior(P(0, 0), P(2, 0), P(1, 0))

    def test_endpoint_excluded(self):
        assert not point_on_segment_interior(P(0, 0), P(2, 0), P(2, 0))

    def test_off_line(self):
        assert not point_on_segment_interior(P(0, 0), P(2, 0), P(1, 1))

    def test_collinear_outside(self):
        assert not point_on_segment_interior(P(0, 0), P(2, 0), P(3, 0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            point_on_segment_interior(P(1, 1), P(1, 1), P(0, 0))


class TestTriangle:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Triangle(P(0, 0), P(1, 0), P(2, 0))

    def test_vertex_order_canonical(self):
        t1 = Triangle(P(0, 0), P(4, 0), P(1, 3))
        t2 = Triangle(P(1, 3), P(0, 0), P(4, 0))
        t3 = Triangle(P(4, 0), P(0, 0), P(1, 3))  # clockwise input
        assert t1 == t2 == t3
        assert orientation(*t1.vertices) is Orientation.CCW

    def test_metrics_example(self):
        area, squares, perim = triangle_metrics(Triangle(P(0, 0), P(4, 0), P(1, 3)))
        assert area == 6
        assert squares == (10, 16, 18)
        assert abs(expr_decimal(perim)
                   - (Decimal(10).sqrt() + 4 + Decimal(18).sqrt())) < Decimal("1e-60")

    def test_unit_right_triangle(self):
        area, squares, perim = triangle_metrics(Triangle(P(0, 0), P(1, 0), P(0, 1)))
        assert area == F(1, 2)
        assert squares == (1, 1, 2)
        assert perim == LengthExpr.rational(2) + LengthExpr.sqrt(2)

    def test_area_matches_shoelace_oracle(self, rng):
        for _ in range(50):
            t = rand_triangle(rng)
            pts = [(p.x, p.y) for p in t.vertices]
            assert t.area == shoelace(pts)
            assert t.area > 0

    def test_isoperimetric_bound(self, rng):
        # 36^2 * area^2 <= 3 * perimeter^4, squared to stay exact
        for _ in range(40):
            t = rand_triangle(rng)
            assert _p4(t) >= LengthExpr.rational(432 * t.area ** 2)

    def test_isoperimetric_nearly_tight_for_near_equilateral(self):
        t = Triangle(P(0, 0), P(56, 0), P(28, F(485, 10)))  # height ~ 28*sqrt(3)
        ratio_lo = (432 * t.area ** 2) / _p4(t).refine(F(1, 10 ** 20)).hi
        assert ratio_lo > F(999999, 1000000)

    def test_side_area_bound(self, rng):
        # area <= side*(perimeter - side)/4 for every side
        for _ in range(30):
            t = rand_triangle(rng)
            s1, s2, s3 = t.squared_sides()
            for this, others in ((s1, (s2, s3)), (s2, (s1, s3)), (s3, (s1, s2))):
                rhs = (LengthExpr.sqrt(this * others[0])
                       + LengthExpr.sqrt(this * others[1])) * F(1, 4)
                assert LengthExpr.rational(t.area) <= rhs


def _p4(t: Triangle) -> LengthExpr:
    """perimeter^4 expanded exactly into a radical sum."""
    s1, s2, s3 = t.squared_sides()
    rat = s1 + s2 + s3
    m12, m13, m23 = s1 * s2, s1 * s3, s2 * s3
    return (LengthExpr.rational(rat * rat + 4 * (m12 + m13 + m23))
            + LengthExpr.sqrt(m12, 4 * rat + 8 * s3)
            + LengthExpr.sqrt(m13, 4 * rat + 8 * s2)
            + LengthExpr.sqrt(m23, 4 * rat + 8 * s1))


class TestCongruence:
    def test_translation(self):
        t = Triangle(P(0, 0), P(4, 0), P(1, 3))
        shifted = Triangle(P(5, 7), P(9, 7), P(6, 10))
        assert congruence_check(t, shifted)

    def test_reflection_image_congruent(self):
        t1 = Triangle(P(0, 0), P(4, 0), P(1, 3))
        t2 = Triangle(P(0, 0), P(4, 0), P(3, 3))
        assert congruence_check(t1, t2)

    def test_different_shape(self):
        t1 = Triangle(P(0, 0), P(4, 0), P(1, 3))
        t2 = Triangle(P(0, 0), P(4, 0), P(2, 3))
        assert t2.squared_sides() == (13, 13, 16)
        assert not congruence_check(t1, t2)

    def test_invariant_under_rational_isometries(self, rng):
        rotations = [(F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(8, 17), F(15, 17))]
        for _ in range(20):
            t = rand_triangle(rng)
            c, s = rotations[rng.randrange(3)]
            dx, dy = rand_point(rng).x, rand_point(rng).y
            flip = rng.random() < 0.5

            def iso(p):
                x, y = (p.x, -p.y) if flip else (p.x, p.y)
                return Point(c * x - s * y + dx, s * x + c * y + dy)

            moved = Triangle(*(iso(p) for p in t.vertices))
            assert congruence_check(t, moved)

    def test_equivalence_relation(self, rng):
        ts = [rand_triangle(rng) for _ in range(8)]
        for a in ts:
            assert congruence_check(a, a)
            for b in ts:
                assert congruence_check(a, b) == congruence_check(b, a)
                for c in ts:
                    if congruence_check(a, b) and congruence_check(b, c):
                        assert congruence_check(a, c)


class TestReflectionClassify:
    X, Y, Z = P(0, 0), P(4, 0), P(1, 3)

    @pytest.mark.parametrize("zp,want", [
        (P(1, 3), ReflectionKind.IDENTITY),
        (P(1, -3), ReflectionKind.LINE_XY),
        (P(3, -3), ReflectionKind.MIDPOINT_XY),
        (P(3, 3), ReflectionKind.PERP_BISECTOR_XY),
        (P(2, 5), ReflectionKind.NONE),
    ])
    def test_examples(self, zp, want):
        assert reflection_classify(self.X, self.Y, self.Z, zp) is want

    def test_reflection_helpers_are_involutions(self, rng):
        for _ in range(20):
            x, y = rand_point(rng), rand_point(rng)
            if x == y:
                continue
            p = rand_point(rng)
            assert reflect_across_line(x, y, reflect_across_line(x, y, p)) == p
            assert reflect_through_midpoint(x, y, reflect_through_midpoint(x, y, p)) == p
            assert reflect_across_bisector(x, y, reflect_across_bisector(x, y, p)) == p

    def test_isoceles_apex_bisector_is_identity(self):
        # apex above the midpoint: the bisector fixes it
        assert reflect_across_bisector(P(0, 0), P(4, 0), P(2, 3)) == P(2, 3)
        assert reflection_classify(P(0, 0), P(4, 0), P(2, 3), P(2, 3)) \
            is ReflectionKind.IDENTITY

    def test_apex_on_base_rejected(self):
        with pytest.raises(ValueError):
            reflection_classify(P(0, 0), P(4, 0), P(2, 0), P(1, 3))


class TestEqualInvariantApexes:
    def test_generic_four(self):
        got = equal_invariant_apexes(P(0, 0), P(4, 0), P(1, 3))
        assert got == {P(1, 3), P(1, -3), P(3, 3), P(3, -3)}

    def test_isoceles_two(self):
        got = equal_invariant_apexes(P(0, 0), P(4, 0), P(2, 3))
        assert got == {P(2, 3), P(2, -3)}

    def test_all_apexes_preserve_area_and_perimeter(self, rng):
        for _ in range(15):
            t = rand_triangle(rng)
            x, y, z = t.vertices
            base = Triangle(x, y, z)
            for zp in equal_invariant_apexes(x, y, z):
                other = Triangle(x, y, zp)
                assert other.area == base.area
                assert other.perimeter() == base.perimeter()

    def test_matches_ellipse_intersection_oracle(self, rng):
        for _ in range(8):
            t = rand_triangle(rng, scalene=True)
            x, y, z = t.vertices
            got = sorted(equal_invariant_apexes(x, y, z))
            oracle = ellipse_line_apexes(x, y, z)
            assert len(oracle) == len(got)
            scale = max(Decimal(1), *(abs(v) for p in oracle for v in p))
            for p, (ox, oy) in zip(got, oracle):
                assert abs(dec(p.x) - ox) <= scale * Decimal("1e-30")
                assert abs(dec(p.y) - oy) <= scale * Decimal("1e-30")


def ellipse_line_apexes(x: Point, y: Point, z: Point):
    """Numeric oracle: intersect the ellipse with foci x, y through z with
    the two lines parallel to xy at the height of z, by bisection on the
    convex distance-sum function.  Returns sorted Decimal pairs.
    """
    xd = (dec(x.x), dec(x.y))
    yd = (dec(y.x), dec(y.y))
    zd = (dec(z.x), dec(z.y))
    ux, uy = yd[0] - xd[0], yd[1] - xd[1]
    norm = (ux * ux + uy * uy).sqrt()
    ux, uy = ux / norm, uy / norm
    nx, ny = -uy, ux
    h = (zd[0] - xd[0]) * nx + (zd[1] - xd[1]) * ny

    def dist(px, py, q):
        return ((px - q[0]) ** 2 + (py - q[1]) ** 2).sqrt()

    ksum = dist(zd[0], zd[1], xd) + dist(zd[0], zd[1], yd)
    center_s = norm / 2
    found = []
    for hh in (h, -h):
        def f(s):
            px, py = xd[0] + s * ux + hh * nx, xd[1] + s * uy + hh * ny
            return dist(px, py, xd) + dist(px, py, yd) - ksum

        for lo, hi in ((center_s - ksum, center_s), (center_s, center_s + ksum)):
            a, b = lo, hi
            fa, fb = f(a), f(b)
            if fa * fb > 0:
                continue
            for _ in range(220):
                mid = (a + b) / 2
                if fa * f(mid) <= 0:
                    b = mid
                else:
                    a, fa = mid, f(mid)
            s = (a + b) / 2
            found.append((xd[0] + s * ux + hh * nx, xd[1] + s * uy + hh * ny))
    dedup = []
    for p in sorted(found):
        if not dedup or abs(p[0] - dedup[-1][0]) + abs(p[1] - dedup[-1][1]) > Decimal("1e-25"):
            dedup.append(p)
    return dedup


class TestRationalText:
    @pytest.mark.parametrize("text,value", [
        ("3", F(3)), ("-3", F(-3)), ("3/4", F(3, 4)), ("-9/6", F(-3, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "1.5", "3/-4", "+3", "a", "1/0", "1 /2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_rational(6, 4) == "3/2"
        assert format_rational(-8, 2) == "-4"
        assert (format_rational(0, 5), format_rational(7, 1)) == ("0", "7")

    def test_segment_sq_dist(self):
        assert segment_sq_dist(P(0, 0), P(4, 0), P(2, 3)) == 9
        assert segment_sq_dist(P(0, 0), P(4, 0), P(6, 0)) == 4
        assert segment_sq_dist(P(0, 0), P(4, 0), P(-3, 4)) == 25
