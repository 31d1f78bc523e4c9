import random
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (LengthExpr, Point, RecursiveSplitSpec, Stretch,
                     StretchClass, SideLabel, TilingPatch, Triangle,
                     TwoScaleSpec, apply_affine, build_incidence,
                     composite_sides, convex_polygon_on_circle,
                     decompose_stretches, epsilon2, eq1_audit,
                     extract_disk_patch, gen_convex_triangulation, gen_recursive_split,
                     gen_two_scale_periodic, neighbor_hops_to_composite,
                     no_shared_side_conditions, parse_tiling, shared_side_pairs,
                     side_labels, w_audit)
from tritile.cli import main as cli_main
from tritile.geometry import sq_dist
from tritile.incidence import SideRef
from tritile.report import Status
from tritile.radicals import START_BITS, _bounds
from tritile.stretches import _cancels, _Contributions, _tile_w

import fixtures
from conftest import expr_decimal

F = Fraction
P = Point.of
GOLDEN = Path(__file__).parent / "golden"


def brute_force_shared(patch: TilingPatch):
    """O(t^2) oracle: compare all side pairs as exact segment sets."""
    pairs = []
    for i, t1 in enumerate(patch.tiles):
        for j in range(i + 1, len(patch.tiles)):
            for a, b in t1.sides():
                for c, d in patch.tiles[j].sides():
                    if {a, b} == {c, d}:
                        pairs.append((i, j))
    return sorted(set(pairs))


def brute_force_shared_segments(patch: TilingPatch):
    """Group every side by its endpoint pair: (t1, t2, segment) triples,
    segment endpoints in Point.key order, sorted by tile pair."""
    by_segment: dict[tuple, list[int]] = {}
    for i, t in enumerate(patch.tiles):
        for p, q in t.sides():
            seg = (p, q) if p.key() <= q.key() else (q, p)
            by_segment.setdefault(seg, []).append(i)
    triples = [(a, b, seg) for seg, tiles in by_segment.items()
               for k, a in enumerate(tiles) for b in tiles[k + 1:]]
    return sorted(triples, key=lambda s: (s[0], s[1]))


def line_sides(edges):
    """The sides on one line, rebuilt from its edges' incidences."""
    return list(dict.fromkeys(ref for e in edges for ref in e.incidences))


def brute_force_composite_sides(g):
    """Per-line scan: a side is composite when the sides on the opposite
    deck of its line tile its span exactly, each lying entirely within it."""
    result = []
    for edges in g.soup.lines.values():
        sides = line_sides(edges)
        for ref in sides:
            opposite = sorted(
                (o for o in sides
                 if o.sign != ref.sign and o.lo < ref.hi and o.hi > ref.lo),
                key=lambda o: o.lo)
            if not opposite:
                continue
            if any(o.lo < ref.lo or o.hi > ref.hi for o in opposite):
                continue
            pos = ref.lo
            for o in opposite:
                if o.lo != pos:
                    pos = None
                    break
                pos = o.hi
            if pos == ref.hi:
                result.append((ref.tile, ref.index,
                               tuple((o.tile, o.index) for o in opposite)))
    return sorted(result)


def joint_cut_decomposition(g):
    """Joint-cut oracle for decompose_stretches.  Per line, the tile sides
    and a boundary marker for each atomic edge with one side are merged
    into connected runs; each run is split into its above and below decks
    and cut where both decks have an item endpoint."""
    stretches, shared = [], []
    pt = g.patch.grid.point
    for key, edges in g.soup.lines.items():
        tagged = [(ref.sign, ref) for ref in line_sides(edges)]
        tagged += [(-e.incidences[0].sign,
                    SideRef(None, None, e.a, e.b, e.lo, e.hi, -e.incidences[0].sign))
                   for e in edges if len(e.incidences) == 1]
        tagged.sort(key=lambda it: (it[1].lo, it[1].hi))

        runs, run_hi = [], None
        for sgn, item in tagged:
            if run_hi is None or item.lo > run_hi:
                runs.append([])
                run_hi = item.hi
            else:
                run_hi = max(run_hi, item.hi)
            runs[-1].append((sgn, item))

        for run in runs:
            above = sorted((it for s, it in run if s > 0), key=lambda i: i.lo)
            below = sorted((it for s, it in run if s < 0), key=lambda i: i.lo)
            lo = min(above[0].lo, below[0].lo)
            hi = max(above[-1].hi, below[-1].hi)
            cuts_a = {x for it in above for x in (it.lo, it.hi) if lo < x < hi}
            cuts_b = {x for it in below for x in (it.lo, it.hi) if lo < x < hi}
            bounds = [lo, *sorted(cuts_a & cuts_b), hi]
            ia = ib = 0
            for plo, phi in zip(bounds, bounds[1:]):
                pa, pb = [], []
                while ia < len(above) and above[ia].lo < phi:
                    assert above[ia].hi <= phi, "deck item crosses a joint cut"
                    pa.append(above[ia])
                    ia += 1
                while ib < len(below) and below[ib].lo < phi:
                    assert below[ib].hi <= phi, "deck item crosses a joint cut"
                    pb.append(below[ib])
                    ib += 1
                assert pa and pb, "one-sided piece in a valid patch"
                if len(pa) == 1 and len(pb) == 1:
                    if pa[0].is_side and pb[0].is_side:
                        t1, t2 = pa[0].side[0], pb[0].side[0]
                        shared.append((min(t1, t2), max(t1, t2), (pt(pa[0].a), pt(pa[0].b))))
                    continue
                n_sides = sum(1 for i in pa + pb if i.is_side)
                if any(not i.is_side for i in pa + pb):
                    klass = StretchClass.IMPROPER
                elif n_sides == 3:
                    klass = StretchClass.TIGHT
                else:
                    klass = StretchClass.LOOSE_PROPER
                a_pt = pa[0].a if pa[0].lo == plo else pb[0].a
                b_pt = pa[-1].b if pa[-1].hi == phi else pb[-1].b
                st = Stretch(key, tuple(pa), tuple(pb), n_sides, klass, g.patch.grid)
                assert (st.a, st.b) == (pt(a_pt), pt(b_pt))
                stretches.append(st)
    return stretches, sorted(set(shared), key=lambda s: (s[0], s[1]))


def recursive(depth, t=F(2), base=(P(0, 0), P(1, 0), P(0, 1))):
    return gen_recursive_split(RecursiveSplitSpec(base, t, depth))


def random_patches(seeds):
    from test_random_patches import random_refined_patch  # imports this module
    return [random_refined_patch(seed) for seed in seeds]


QUARTER_TURN = ((F(0), F(-1)), (F(1), F(0)))

#: family -> the patches the walk is checked on against the joint-cut oracle
ORACLE_CORPUS = {
    "fixtures": lambda: [fixtures.square_diag(), fixtures.rect_l_shape(),
                         fixtures.notched_split(), fixtures.offset_quad()],
    "recursive": lambda: [recursive(depth) for depth in range(1, 7)],
    "twoscale": lambda: [gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), m, n))
                         for m, n in ((1, 1), (2, 3), (3, 2))],
    "convex": lambda: [gen_convex_triangulation(convex_polygon_on_circle(k, seed),
                                                "random", seed)
                       for k in range(4, 9) for seed in (1, 2, 3)],
    "random": lambda: random_patches(range(20)),
}


class TestDecompose:
    def test_square_diag_no_stretches(self):
        g = build_incidence(fixtures.square_diag())
        stretches, shared = decompose_stretches(g)
        assert stretches == []
        assert [(a, b) for a, b, _ in shared] == [(0, 1)]

    def test_depth1_three_tight(self):
        g = build_incidence(recursive(1))
        stretches, shared = decompose_stretches(g)
        assert shared == []
        assert [s.klass for s in stretches] == [StretchClass.TIGHT] * 3
        assert all(s.size == 3 for s in stretches)
        for s in stretches:
            decks = sorted((len(s.above), len(s.below)))
            assert decks == [1, 2]

    def test_rect_l_improper(self):
        g = build_incidence(fixtures.rect_l_shape())
        stretches, _ = decompose_stretches(g)
        improper = [s for s in stretches if s.klass is StretchClass.IMPROPER]
        assert len(improper) == 1
        assert improper[0].size == 2

    def test_notched_improper_size_2(self):
        g = build_incidence(fixtures.notched_split())
        stretches, shared = decompose_stretches(g)
        assert shared == []
        by_class = sorted(s.klass.value for s in stretches)
        assert by_class == ["improper"] + ["tight"] * 3
        imp = next(s for s in stretches if s.klass is StretchClass.IMPROPER)
        assert imp.size == 2

    def test_offset_quad_loose_proper(self):
        g = build_incidence(fixtures.offset_quad())
        stretches, shared = decompose_stretches(g)
        assert len(shared) == 2
        assert [s.klass for s in stretches] == [StretchClass.LOOSE_PROPER]
        assert stretches[0].size == 4
        assert (stretches[0].a, stretches[0].b) == (P(0, 0), P(4, 0))
        # the two decks break at different interior points
        above = [it.label() for it in stretches[0].above]
        below = [it.label() for it in stretches[0].below]
        assert len(above) == len(below) == 2

    def test_size_bounds(self):
        patches = [recursive(4), fixtures.rect_l_shape(), fixtures.notched_split(),
                   gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 2))]
        for patch in patches:
            stretches, _ = decompose_stretches(build_incidence(patch))
            for s in stretches:
                if s.klass is StretchClass.IMPROPER:
                    assert s.size >= 2
                else:
                    assert s.size >= 3
                assert (s.klass is StretchClass.TIGHT) == (
                    s.size == 3 and all(i.is_side for i in s.above + s.below))

    def test_partition_of_sides(self):
        # every side not on the full boundary and not shared lies on
        # exactly one stretch
        for patch in (recursive(5), fixtures.notched_split(),
                      fixtures.rect_l_shape(),
                      gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 2, 2))):
            g = build_incidence(patch)
            stretches, _ = decompose_stretches(g)
            shared = shared_side_pairs(g)
            seen = [item.side for s in stretches for item in s.side_items]
            assert len(seen) == len(set(seen))
            assert len(seen) == 3 * g.t - g.e_full - 2 * len(shared)

    def test_decks_hold_the_soups_side_records(self):
        # a ragged edge gives improper stretches, so both kinds of item occur
        g = build_incidence(gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 2)))
        stretches, _ = decompose_stretches(g)
        assert len(set(stretches)) == len(stretches)
        refs = {(ref.tile, ref.index): ref for e in g.soup.edges for ref in e.incidences}
        markers = 0
        for st in stretches:
            for deck, sign in ((st.above, 1), (st.below, -1)):
                for item in deck:
                    if item.is_side:
                        assert item is refs[item.side]
                    else:
                        markers += 1
                        assert item.side is None and item.label() == "bd"
                        assert item.sign == sign
        assert markers and any(s.klass is StretchClass.IMPROPER for s in stretches)


class TestJointCutOracle:
    @pytest.mark.parametrize("family", sorted(ORACLE_CORPUS))
    def test_walk_matches_joint_cuts(self, family):
        rng = random.Random(family)
        for patch in ORACLE_CORPUS[family]():
            tiles = list(patch.tiles)
            rng.shuffle(tiles)
            permuted = TilingPatch(tuple(tiles), patch.region, patch.metadata)
            for variant in (patch, permuted, apply_affine(patch, QUARTER_TURN)):
                g = build_incidence(variant)
                # stretches and shared sides, both in order
                assert decompose_stretches(g) == joint_cut_decomposition(g)


class TestSharedSides:
    def test_square_diag_pair(self):
        g = build_incidence(fixtures.square_diag())
        pairs = shared_side_pairs(g)
        assert [(a, b) for a, b, _ in pairs] == [(0, 1)]
        assert pairs[0][2] == (P(0, 0), P(1, 1))

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_recursive_empty(self, depth):
        g = build_incidence(recursive(depth))
        assert shared_side_pairs(g) == []

    def test_matches_brute_force_oracle(self):
        corpus = [fixtures.square_diag(), fixtures.rect_l_shape(),
                  fixtures.notched_split(), recursive(3),
                  gen_two_scale_periodic(TwoScaleSpec(F(1), F(2), 2, 2))]
        for seed in range(5):
            corpus.append(gen_convex_triangulation(
                convex_polygon_on_circle(6, seed), "random", seed))
        for patch in corpus:
            g = build_incidence(patch)
            got = sorted({(a, b) for a, b, _ in shared_side_pairs(g)})
            assert got == brute_force_shared(patch)

    def test_decomposition_agrees_with_direct_search(self):
        corpus = [fixtures.square_diag(), fixtures.rect_l_shape(),
                  fixtures.notched_split(), recursive(3)]
        for seed in range(10):
            corpus.append(gen_convex_triangulation(
                convex_polygon_on_circle(7, seed), "random", seed))
        for patch in corpus:
            g = build_incidence(patch)
            _, from_decomp = decompose_stretches(g)
            # pair for pair and in the same order, segments included
            assert from_decomp == brute_force_shared_segments(patch)
            assert shared_side_pairs(g) == from_decomp


class TestEq1:
    def test_single_triangle(self):
        rec = eq1_audit(build_incidence(
            TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),))))
        assert rec.get("vertex_identity").value == "3 3"
        assert rec.ok

    def test_fan_square(self):
        patch = gen_convex_triangulation(
            (P(0, 0), P(2, 0), P(2, 2), P(0, 2)), "fan")
        rec = eq1_audit(build_incidence(patch))
        assert rec.get("vertex_identity").value == "4 4"
        assert rec.ok

    def test_fan_pentagon(self):
        patch = gen_convex_triangulation(
            (P(0, 0), P(4, 0), P(5, 3), P(2, 5), P(-1, 3)), "fan")
        rec = eq1_audit(build_incidence(patch))
        assert rec.get("vertex_identity").value == "5 5"

    def test_depth1(self):
        rec = eq1_audit(build_incidence(recursive(1)))
        assert rec.get("vertex_identity").value == "6 6"
        assert rec.get("no_shared_sides_forces_triangle").status is Status.PASS

    def test_nonconvex_not_applicable(self):
        rec = eq1_audit(build_incidence(fixtures.rect_l_shape()))
        assert rec.get("vertex_identity").status is Status.NA


class TestConditions:
    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_recursive_all_true(self, depth):
        g = build_incidence(recursive(depth))
        rec = no_shared_side_conditions(g)
        for name in ("i_no_vertex_on_region_sides", "ii_interior_vertices_subdivide",
                     "iii_all_stretches_size_3"):
            assert rec.get(name).status is Status.PASS

    def test_shared_side_precondition_fails(self):
        # split one sliver of the depth-1 patch with a cevian: a shared side
        patch = recursive(1)
        tiles = list(patch.tiles)
        sliver = tiles.pop(1)
        assert sliver == Triangle(P(-1, 0), P(2, -1), P(1, 0))
        mid = P(F(1, 2), F(-1, 2))
        tiles += [Triangle(P(-1, 0), mid, P(1, 0)), Triangle(mid, P(2, -1), P(1, 0))]
        sub = TilingPatch(tuple(tiles), patch.region)
        g = build_incidence(sub)
        rec = no_shared_side_conditions(g)
        assert rec.get("conditions").status is Status.NA

    def test_non_triangle_region_not_applicable(self):
        g = build_incidence(fixtures.square_diag())
        assert no_shared_side_conditions(g).get("conditions").status is Status.NA


class TestEpsilon2:
    def test_example_4_0_1_3(self):
        # sides sqrt(10) < 4 < sqrt(18): margin = sqrt(10) + 4 - sqrt(18)
        e = epsilon2(TilingPatch((Triangle(P(0, 0), P(4, 0), P(1, 3)),)))
        want = LengthExpr.sqrt(10) + LengthExpr.rational(4) - LengthExpr.sqrt(18)
        assert e == want
        assert e.decimal_str(3) == expr_decimal(want).quantize(
            __import__("decimal").Decimal("0.001")).__str__()
        assert e.decimal_str(3) == "2.920"

    def test_isoceles_example(self):
        e = epsilon2(TilingPatch((Triangle(P(0, 0), P(2, 0), P(1, 1)),)))
        want = LengthExpr.sqrt(2, 2) - LengthExpr.rational(2)
        assert e == want
        assert e.decimal_str(3) == "0.828"

    def test_patch_minimum(self):
        patch = recursive(3)
        e = epsilon2(patch)
        margins = []
        for t in patch.tiles:
            s1, s2, s3 = t.squared_sides()
            margins.append(LengthExpr.sqrt(s1) + LengthExpr.sqrt(s2)
                           - LengthExpr.sqrt(s3))
        assert min(expr_decimal(m) for m in margins) == expr_decimal(e)
        assert e.sign() > 0

    #: margins -4 + sqrt(20) (squared sides 1, 20, 25) and -4 + 2*sqrt(5)
    #: (squared sides 5, 5, 16): equal values, written differently
    TIE_A = ((0, 0), (-4, -3), (0, -1))
    TIE_B = ((0, 0), (-4, 0), (-2, -1))

    @pytest.mark.parametrize("order, want", [
        ("AB", "-4 + sqrt(20)"), ("BA", "-4 + 2*sqrt(5)"), ("BAAB", "-4 + 2*sqrt(5)")])
    def test_first_tile_wins_a_tie(self, order, want):
        overlapping = {"A": Triangle(P(0, 0), P(1, 0), P(3, 4)),
                       "B": Triangle(P(0, 0), P(4, 0), P(2, 1))}
        apart = {"A": Triangle(*(P(x, y) for x, y in self.TIE_A)),
                 "B": Triangle(*(P(x + 10, y + 3) for x, y in self.TIE_B))}
        for tiles in (overlapping, apart):
            assert repr(epsilon2(TilingPatch(tuple(tiles[c] for c in order)))) == want

    @pytest.mark.parametrize("a_first", [True, False])
    def test_tie_in_audit_output(self, a_first, tmp_path, capsys):
        # a valid share-free patch: A, B moved by (4, -1) below A's corner
        # (0, -1), and two fillers with larger margins (1.76 and 0.69)
        b = " ".join(f"{x + 4} {y - 1}" for x, y in self.TIE_B)
        a = " ".join(f"{x} {y}" for x, y in self.TIE_A)
        fillers = ["0 -1 3 -1 0 2", "0 2 0 0 -8 -6"]
        tiles = [a, b] if a_first else [b, a]
        path = tmp_path / "tie.til"
        path.write_text("#TILING 1\n" + "".join(f"tri {t}\n" for t in tiles + fillers))
        assert cli_main(["audit", str(path)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("epsilon2 = ")]
        want = "-4 + sqrt(20)" if a_first else "-4 + 2*sqrt(5)"
        # the w-audit's line and the asymptotic audit's line
        assert lines == [f"epsilon2 = {want} (~0.472135955000)"] * 2

    def test_matches_the_unfiltered_minimum(self):
        # the margin of every tile is built and compared, with no bound filter
        corpus = [parse_tiling((GOLDEN / f"{name}.til").read_bytes())
                  for name in ("twoscale-2", "recursive-4", "recursive-12", "convex-6")]
        corpus += [recursive(depth) for depth in range(13)]
        corpus += [gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 2)),
                   *random_patches(range(20))]
        a = Triangle(*(P(x, y) for x, y in self.TIE_A))
        b = Triangle(*(P(x + 10, y + 3) for x, y in self.TIE_B))
        corpus += [TilingPatch((a, b)), TilingPatch((b, a))]
        for patch in corpus:
            grid = patch.grid
            want = min(LengthExpr.sum((grid.length(s1), grid.length(s2), grid.length(s3, -1)))
                       for s1, s2, s3 in (t.squared_sides() for t in grid.tiles))
            assert repr(epsilon2(patch)) == repr(want)

    def test_one_margin_per_shape(self, monkeypatch):
        # 216 tiles of two shapes: one exact comparison
        patch = gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 6, 6))
        calls = []
        sign = LengthExpr.sign
        monkeypatch.setattr(LengthExpr, "sign", lambda e: calls.append(e) or sign(e))
        epsilon2(patch)
        assert len(calls) <= 1

    def test_scaling_homogeneity(self):
        patch = fixtures.notched_split()
        scaled = apply_affine(patch, ((F(3), F(0)), (F(0), F(3))))
        assert epsilon2(scaled) == epsilon2(patch) * 3


class TestLabels:
    def test_depth1_labels(self):
        g = build_incidence(recursive(1))
        labels = side_labels(g)
        longs = [k for k, v in labels.items() if v is SideLabel.LONG]
        shorts = [k for k, v in labels.items() if v is SideLabel.SHORT]
        assert len(longs) == 3 and len(shorts) == 6
        # the inner triangle's sides are all short
        assert {(0, s) for s in range(3)} <= set(shorts)

    def test_long_side_spans_stretch(self):
        g = build_incidence(recursive(4))
        stretches, _ = decompose_stretches(g)
        for s in stretches:
            li = s.long_item
            assert (li.a, li.b) == (s.a, s.b) or (li.b, li.a) == (s.a, s.b)


class TestWAudit:
    def test_depth1_exact(self):
        g = build_incidence(recursive(1))
        audit = w_audit(g)
        assert audit.applicable
        assert audit.sigma_tight == 3 and audit.loose_total_size == 0
        assert audit.w_definition == audit.epsilon2 * -3
        assert audit.record.ok

    @pytest.mark.parametrize("depth,t", [(2, F(2)), (4, F(3, 2)), (6, F(3))])
    def test_depth_n_counts(self, depth, t):
        g = build_incidence(recursive(depth, t))
        audit = w_audit(g)
        assert audit.sigma_tight == 3 * depth
        assert audit.loose_total_size == 0
        assert audit.e_full == 3
        assert audit.n_long == 3 * depth and audit.n_short == 6 * depth
        assert audit.record.ok

    def test_notched_routes_agree(self):
        g = build_incidence(fixtures.notched_split())
        audit = w_audit(g)
        assert audit.applicable and audit.record.ok
        assert audit.sigma_tight == 3 and audit.loose_total_size == 2

    def test_shared_sides_not_applicable(self):
        g = build_incidence(fixtures.square_diag())
        audit = w_audit(g)
        assert not audit.applicable
        assert audit.record.get("w_routes_agree").status is Status.NA

    def test_unit_perimeter_single_tile(self):
        # 3-4-5 right triangle scaled to perimeter exactly 1
        tile = Triangle(P(0, 0), P(F(1, 3), 0), P(0, F(1, 4)))
        patch = TilingPatch((tile,), tile.vertices)
        g = build_incidence(patch)
        audit = w_audit(g, unit_perimeter=True)
        assert audit.record.get("unit_perimeter").status is Status.PASS
        assert audit.type_counts["exceptional"] == 1
        assert audit.record.get("exceptional_bound").status is Status.PASS
        assert audit.w_definition.is_zero()

    def test_unit_perimeter_flag_fails_on_non_unit(self):
        g = build_incidence(recursive(1))
        audit = w_audit(g, unit_perimeter=True)
        assert audit.record.get("unit_perimeter").status is Status.FAIL

    def test_type_counts_depth3(self):
        g = build_incidence(recursive(3))
        audit = w_audit(g)
        assert audit.type_counts == {"type0": 1, "type1": 6, "type2": 0,
                                     "type3": 0, "exceptional": 3}
        assert len(audit.contributions) == g.t
        total = LengthExpr()
        for c in audit.contributions:
            total = total + c
        assert total == audit.w_definition

    @pytest.mark.parametrize("unit_perimeter", [False, True])
    def test_memo_matches_per_tile_oracle(self, unit_perimeter):
        corpus = [parse_tiling((GOLDEN / f"{name}.til").read_bytes())
                  for name in ("twoscale-2", "recursive-4", "convex-6")]
        corpus += [gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 2)),
                   recursive(3), *random_patches(range(20))]
        # disks cut from a two-scale patch: share-free, with exceptional tiles
        ambient = gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 4, 4))
        corpus += [extract_disk_patch(ambient, P(F(cx, 4), F(cy, 4)), F(r, 4)).patch
                   for cx, cy, r in ((20, 14, 40), (8, 8, 25), (30, 3, 60))]
        applicable = 0
        for patch in corpus:
            g = build_incidence(patch)
            audit = w_audit(g, unit_perimeter=unit_perimeter)
            if not audit.applicable:
                assert shared_side_pairs(g) and audit.contributions == []
                continue
            applicable += 1
            contributions, type_counts, checks = w_tiles_oracle(g, unit_perimeter)
            assert [repr(c) for c in audit.contributions] == [repr(c) for c in contributions]
            assert audit.type_counts == type_counts
            for name, ok in checks.items():
                if unit_perimeter or name == "type1_nonnegative":
                    assert audit.record.get(name).status is (
                        Status.PASS if ok else Status.FAIL), name
        assert applicable == 7

    def test_memo_hit_carries_a_failing_check(self):
        # 24 tiles, most keys repeated; no perimeter is 1, so every key fails
        g = build_incidence(gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 2, 2)))
        keys = [tuple(sorted(t.squared_sides())) for t in g.patch.grid.tiles]
        assert len(set(keys)) < len(keys)
        audit = w_audit(g, unit_perimeter=True)
        _, _, checks = w_tiles_oracle(g, True)
        assert not checks["unit_perimeter"] and not checks["type0_zero"]
        for name in ("unit_perimeter", "type0_zero"):
            assert audit.record.get(name).status is Status.FAIL


class TestType1IntegerSign:
    """The type-1 check decided on the grid's ints, against exact signs."""

    LONG, SHORT = SideLabel.LONG, SideLabel.SHORT

    @staticmethod
    def judge(g, key):
        """_tile_w on `key` as w_audit calls it, plus the key's contribution."""
        eps2, (e1, e2, e3) = g.min_margin
        by_key = _Contributions(g.patch.grid, eps2)
        eps2_bounds = g.patch.grid.bounds(((e1, -1), (e2, -1), (e3, 1)))
        return _tile_w(key, by_key, eps2_bounds, False), by_key[key]

    def test_zero_contribution_falls_back_to_the_exact_sign(self, monkeypatch):
        # the eps2-minimal shape (1, 8, 13), its longest side long: the
        # contribution is exactly 0 and the START_BITS bounds straddle it
        g = build_incidence(recursive(3))
        eps2, shape = g.min_margin
        assert shape == (1, 8, 13) and g.patch.grid.scale == 1
        lo, hi, _ = _bounds(((1, 1), (8, 1), (13, -1), (1, -1), (8, -1), (13, 1)), START_BITS)
        assert lo < 0 < hi
        signs = []
        sign = LengthExpr.sign
        monkeypatch.setattr(LengthExpr, "sign", lambda e: signs.append(e) or sign(e))
        (kind, fails), contrib = self.judge(g, shape + (self.SHORT, self.SHORT, self.LONG))
        assert (kind, fails) == ("type1", ())
        assert len(signs) == 1 and contrib.is_zero()

    def test_negative_contribution_fails(self, monkeypatch):
        # sides 2, 2, sqrt(15): margin 4 - sqrt(15) < 1 + sqrt(8) - sqrt(13)
        g = build_incidence(recursive(3))
        signs = []
        sign = LengthExpr.sign
        monkeypatch.setattr(LengthExpr, "sign", lambda e: signs.append(e) or sign(e))
        (kind, fails), contrib = self.judge(g, (4, 4, 15, self.SHORT, self.SHORT, self.LONG))
        assert (kind, fails) == ("type1", ("type1_nonnegative",))
        assert len(signs) == 0     # the integer bounds decided it
        assert contrib.sign() < 0

    @pytest.mark.parametrize("key", [(1, 8, 13), (4, 4, 15), (1, 1, 3), (2, 5, 9), (9, 16, 24)])
    @pytest.mark.parametrize("long_at", range(3))
    def test_matches_the_exact_sign(self, key, long_at):
        g = build_incidence(recursive(3))
        kinds = tuple(self.LONG if s == long_at else self.SHORT for s in range(3))
        (_, fails), contrib = self.judge(g, key + kinds)
        assert ("type1_nonnegative" in fails) == (contrib.sign() < 0)

    def test_contributions_built_only_when_read(self, monkeypatch):
        built = []
        init = LengthExpr.__init__
        monkeypatch.setattr(LengthExpr, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        counts, graphs = [], []
        for depth in (10, 40):
            g = build_incidence(recursive(depth))
            del built[:]
            audit = w_audit(g)
            counts.append(len(built))
            graphs.append((g, audit))
        assert counts[0] == counts[1]
        for g, audit in graphs:
            assert audit.record.ok
            contributions, _, _ = w_tiles_oracle(g, False)
            assert [repr(c) for c in audit.contributions] == [repr(c) for c in contributions]


def w_tiles_oracle(g, unit_perimeter):
    """The W audit's per-tile part, tile by tile with no memo: the
    contributions, the type counts and each check's verdict."""
    labels, eps2, grid = g.labels, g.eps2, g.patch.grid
    type_counts = {"type0": 0, "type1": 0, "type2": 0, "type3": 0, "exceptional": 0}
    contributions = []
    checks = {"type1_nonnegative": True, "type0_zero": True, "type2_bound": True,
              "type3_value": True, "exceptional_bound": True, "unit_perimeter": True}
    for i, tile in enumerate(grid.tiles):
        kinds = [labels[(i, s)] for s in range(3)]
        n = kinds.count(SideLabel.LONG)
        contrib = LengthExpr.rational(F(2 * n - kinds.count(SideLabel.SHORT), 3)) - eps2 * n
        for (p, q), kind in zip(tile.sides(), kinds):
            if kind is not SideLabel.NONE:
                contrib = contrib + grid.length(sq_dist(p, q), -1 if kind is SideLabel.LONG else 1)
        contributions.append(contrib)
        perim = LengthExpr.sum(grid.length(sq_dist(p, q)) for p, q in tile.sides())
        if SideLabel.NONE in kinds:
            type_counts["exceptional"] += 1
            if unit_perimeter and contrib < perim * F(-2, 3):
                checks["exceptional_bound"] = False
            continue
        type_counts[f"type{n}"] += 1
        if n == 1 and contrib.sign() < 0:
            checks["type1_nonnegative"] = False
        if not unit_perimeter:
            continue
        checks["unit_perimeter"] &= perim == LengthExpr.rational(1)
        checks["type0_zero"] &= n != 0 or contrib.is_zero()
        if n == 2:
            bound = grid.length(tile.squared_sides()[0]) * 2 - eps2 * 2
            checks["type2_bound"] &= not contrib < bound
        checks["type3_value"] &= n != 3 or contrib == perim - eps2 * 3
    return contributions, type_counts, checks


class TestSidesReadOnce:
    """After the grid's side table is built, the eps2, W and asymptotic
    audits square no tile side again, and root each squared side once."""

    @staticmethod
    def counters(monkeypatch):
        import math
        import sys
        squares, roots = [], []
        for name, mod in list(sys.modules.items()):
            if name.startswith("tritile") and hasattr(mod, "sq_dist"):
                monkeypatch.setattr(mod, "sq_dist", lambda p, q, _f=mod.sq_dist:
                                    squares.append(1) or _f(p, q))
        isqrt = math.isqrt
        monkeypatch.setattr(math, "isqrt", lambda m: roots.append(1) or isqrt(m))
        return squares, roots

    @pytest.mark.parametrize("small, big", [
        (recursive(10), recursive(40)),
        (gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 3, 3)),
         gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 6, 6)))],
        ids=["recursive-40", "twoscale-216"])
    def test_counts(self, small, big, monkeypatch):
        from tritile.extract import asymptotic_audit
        from tritile.stretches import min_margin
        squares, roots = self.counters(monkeypatch)
        w_roots = []
        for patch in (small, big):
            g = build_incidence(patch)
            grid = patch.grid
            distinct = {q for sqs in grid.side_squares for q in sqs}
            del squares[:], roots[:]
            min_margin(patch)
            assert (len(squares), len(roots)) == (0, len(distinct))
            del roots[:]
            w_audit(g)
            assert len(squares) == 0
            w_roots.append(len(roots))
            asymptotic_audit(patch, [])
            # one per boundary edge (an atomic edge, not a tile side)
            assert len(squares) == len(g.boundary_edges)
            assert set(grid.roots) == distinct
        # no side rooted again: w_audit roots only for eps2's written form,
        # its decimals and the W routes' comparison, the same at any size
        assert w_roots[0] == w_roots[1]

    def test_grid_reads_match_a_fresh_computation(self):
        for patch in (recursive(10), fixtures.notched_split(), *random_patches(range(5))):
            grid = patch.grid
            assert grid.side_squares == tuple(tuple(sq_dist(p, q) for p, q in t.sides())
                                              for t in grid.tiles)


class TestTightCancellation:
    """The integer test for sqrt(s1) + sqrt(s2) == sqrt(l) against LengthExpr."""

    @staticmethod
    def oracle(s1, s2, l):
        return LengthExpr.sqrt(s1) + LengthExpr.sqrt(s2) == LengthExpr.sqrt(l)

    def test_random_triples(self):
        rng = random.Random(5)
        for _ in range(3000):
            triple = [rng.randint(0, 50) for _ in range(3)]
            assert _cancels(*triple) == self.oracle(*triple), triple

    def test_square_multiple_families(self):
        # (k^2 x, m^2 x, (k+m)^2 x) cancels; its other orders square to the
        # same gap**2 == 4*s1*s2 with a negative gap, and do not
        seen = {True: 0, False: 0}
        for x in (1, 2, 3, 5, 6, 7, 12, 433 * 250):
            for k in range(4):
                for m in range(4):
                    a, b, c = k * k * x, m * m * x, (k + m) ** 2 * x
                    for triple in ((a, b, c), (b, a, c), (a, c, b), (c, b, a), (a, b, c + 1)):
                        want = self.oracle(*triple)
                        assert _cancels(*triple) == want, triple
                        seen[want] += 1
        assert seen[True] > 100 and seen[False] > 100

    def test_negative_gap_trap(self):
        # sqrt(4) + sqrt(1) != sqrt(1), though (1 - 4 - 1)**2 == 4*4*1
        assert (1 - 4 - 1) ** 2 == 4 * 4 * 1
        assert not _cancels(4, 1, 1)
        assert not self.oracle(4, 1, 1)


class TestComposite:
    def test_square_diag_both_diagonals(self):
        g = build_incidence(fixtures.square_diag())
        got = composite_sides(g)
        assert len(got) == 2
        assert {entry[0] for entry in got} == {0, 1}
        assert all(len(entry[2]) == 1 for entry in got)

    def test_depth1_three_spanning_sides(self):
        g = build_incidence(recursive(1))
        got = composite_sides(g)
        assert len(got) == 3
        assert all(len(cover) == 2 for _, _, cover in got)
        assert {tile for tile, _, _ in got} == {1, 2, 3}

    def test_two_scale_interior_bases(self):
        patch = gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 3))
        g = build_incidence(patch)
        got = composite_sides(g)
        covers = {(tile, idx): cover for tile, idx, cover in got}
        up_sq = patch.tiles[0].squared_sides()
        # every composite side is covered by exactly two half-scale sides
        assert got and all(len(c) == 2 for c in covers.values())
        big_with_composite = {tile for tile, _, _ in got
                              if patch.tiles[tile].squared_sides() == up_sq}
        assert big_with_composite

    def test_brute_force_cover_oracle(self):
        # independent check on the notched fixture: covered sides are
        # exactly the three spanning sliver sides
        g = build_incidence(fixtures.notched_split())
        got = composite_sides(g)
        assert {tile for tile, _, _ in got} <= {1, 2, 3, 4}
        for tile, idx, cover in got:
            p, q = fixtures.notched_split().tiles[tile].sides()[idx]
            total = sum(
                ((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
                for ct, ci in cover
                for a, b in [fixtures.notched_split().tiles[ct].sides()[ci]])
            assert total  # covering sides are nondegenerate


    def test_matches_per_line_scan(self):
        from test_random_patches import random_refined_patch
        corpus = [fixtures.square_diag(), fixtures.rect_l_shape(),
                  fixtures.notched_split(), fixtures.offset_quad()]
        corpus += [parse_tiling((GOLDEN / f"{name}.til").read_bytes())
                   for name in ("twoscale-2", "recursive-4", "convex-6")]
        corpus += [random_refined_patch(seed) for seed in range(200)]
        ambient = gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 4, 4))
        with_improper = 0
        for seed in range(40):
            rng = random.Random(seed)
            centre = P(F(rng.randint(0, 40), 4), F(rng.randint(0, 28), 4))
            piece = extract_disk_patch(ambient, centre, F(rng.randint(1, 40), 4)).patch
            with_improper += any(st.klass is StretchClass.IMPROPER
                                 for st in build_incidence(piece).decomposition[0])
            corpus.append(piece)
        assert with_improper >= 30
        for patch in corpus:
            g = build_incidence(patch)
            # the same entries in the same order
            assert composite_sides(g) == brute_force_composite_sides(g)


class TestNeighborHops:
    def test_square_diag_zero(self):
        g = build_incidence(fixtures.square_diag())
        assert neighbor_hops_to_composite(g, 0) == 0
        assert neighbor_hops_to_composite(g, 1) == 0

    def test_single_not_found(self):
        g = build_incidence(TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),)))
        assert neighbor_hops_to_composite(g, 0) is None

    def test_depth1_inner(self):
        g = build_incidence(recursive(1))
        assert neighbor_hops_to_composite(g, 0) in (0, 1)

    def test_unknown_tile(self):
        g = build_incidence(fixtures.square_diag())
        with pytest.raises(IndexError):
            neighbor_hops_to_composite(g, 99)

    def test_every_tile_matches_single_source_search(self):
        for patch in (gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 3)),
                      fixtures.notched_split(), recursive(3)):
            g = build_incidence(patch)
            targets = {t for t, _, _ in composite_sides(g)}
            adj = g.adjacency
            for tile in range(g.t):
                # oracle: breadth-first search from this tile alone
                want, dist, frontier, seen = None, 0, {tile}, {tile}
                while frontier:
                    if frontier & targets:
                        want = dist
                        break
                    frontier = {w for u in frontier for w in adj[u]} - seen
                    seen |= frontier
                    dist += 1
                assert neighbor_hops_to_composite(g, tile) == want, tile
