"""Acceptance suite: one test per criterion, each printed as a single
PASS/FAIL line with its stated tolerance and runtime budget enforced."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

from tritile import (LengthExpr, Point, RecursiveSplitSpec,
                     ReflectionKind, TilingPatch, Triangle, TwoScaleSpec,
                     asymptotic_audit, build_incidence, composite_sides,
                     congruence_check, convex_polygon_on_circle,
                     decompose_stretches, epsilon2, eq1_audit,
                     equal_invariant_apexes, gen_convex_triangulation,
                     gen_recursive_split, gen_reflected_pair,
                     gen_two_scale_periodic, graph_audit,
                     neighbor_hops_to_composite, no_shared_side_conditions,
                     reflection_classify, shared_side_pairs,
                     side_length_range, validate_patch, w_audit)
from tritile.cli import main as cli_main
from tritile.model import polygon_area
from tritile.report import Status

import fixtures
from conftest import dec, rand_triangle
from test_geometry import ellipse_line_apexes
from test_stretches import brute_force_shared

F = Fraction
P = Point.of
BASE = (P(0, 0), P(1, 0), P(0, 1))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _recursive(depth, t=F(2)):
    return gen_recursive_split(RecursiveSplitSpec(BASE, t, depth))


def _random_convex(k, seed):
    poly = convex_polygon_on_circle(k, seed * 31 + k)
    return gen_convex_triangulation(poly, "random", seed)


def test_criterion_1_eq1_exactness():
    """v_bd + 2*v_int - v*_int = t + 2 on the full convex corpus, < 10 s."""
    start = time.monotonic()
    patches = [TilingPatch((Triangle(*BASE),))]
    for k in range(4, 9):
        poly = convex_polygon_on_circle(k, seed=k)
        patches.append(gen_convex_triangulation(poly, "fan"))
        for seed in range(50):
            patches.append(_random_convex(k, seed))
    for depth in range(11):
        patches.append(_recursive(depth))
    checked = 0
    for patch in patches:
        rec = eq1_audit(build_incidence(patch))
        entry = rec.get("vertex_identity")
        assert entry.status is Status.PASS, patch.metadata
        checked += 1
    elapsed = time.monotonic() - start
    _report(1, checked == len(patches) and elapsed < 10,
            f"identity exact on {checked} patches in {elapsed:.2f}s")


def test_criterion_2_shared_side_corpus():
    """>= 200 convex k>=4 triangulations all have shared sides; recursive
    splits have none; zero disagreements with the O(t^2) oracle."""
    positives = 0
    for k in range(4, 9):
        for seed in range(40):
            patch = _random_convex(k, seed + 1000)
            got = sorted({(a, b) for a, b, _ in
                          shared_side_pairs(build_incidence(patch))})
            assert got == brute_force_shared(patch)
            assert got, f"no shared side in k={k} seed={seed}"
            positives += 1
    negatives = 0
    for t in (F(3, 2), F(2), F(3)):
        for depth in range(1, 11):
            patch = _recursive(depth, t)
            got = shared_side_pairs(build_incidence(patch))
            assert got == [] and brute_force_shared(patch) == []
            negatives += 1
    _report(2, positives >= 200 and negatives == 30,
            f"{positives} positive + {negatives} negative cases, oracle agreed on all")


def test_criterion_3_recursive_structure():
    """3N+1 tiles, exact validation, conditions (i)-(iii), sigma = 3N,
    L_loose = 0, e_full = 3; the 601-tile stress case audits in < 5 s."""
    for t in (F(3, 2), F(2), F(3)):
        for depth in range(11):
            patch = _recursive(depth, t)
            assert len(patch.tiles) == 3 * depth + 1
            report = patch.validation
            assert report.ok
            assert patch.tile_area_sum() == polygon_area(report.derived_region)
            g = build_incidence(patch)
            stretches, shared = decompose_stretches(g)
            assert shared == []
            cond = no_shared_side_conditions(g)
            assert cond.ok and not cond.not_applicable_entries
            sigma = sum(1 for s in stretches if s.size == 3)
            loose = sum(s.size for s in stretches if s.size != 3)
            assert (sigma, loose, g.e_full) == (3 * depth, 0, 3)

    start = time.monotonic()
    patch = _recursive(200)
    report = patch.validation
    assert report.ok and len(patch.tiles) == 601
    g = build_incidence(patch)
    assert graph_audit(g).ok
    assert eq1_audit(g).ok
    assert no_shared_side_conditions(g).ok
    audit = w_audit(g)
    assert audit.record.ok and audit.sigma_tight == 600
    elapsed = time.monotonic() - start
    _report(3, elapsed < 5,
            f"33 structured cases exact; 601-tile stress audit in {elapsed:.2f}s")


def _share_free_corpus():
    corpus = [TilingPatch((Triangle(*BASE),)), fixtures.notched_split(),
              gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), 3, 3))]
    for t in (F(3, 2), F(2), F(3)):
        for depth in (1, 4, 10):
            corpus.append(_recursive(depth, t))
    corpus.append(gen_reflected_pair(Triangle(P(0, 0), P(4, 0), P(1, 3)),
                                     "midpoint").with_region(None))
    return corpus


def test_criterion_4_w_identity():
    """W by definition equals -eps2 * sigma_tight with exact radical
    equality on every share-free patch; zero tolerance."""
    checked = 0
    for patch in _share_free_corpus():
        g = build_incidence(patch)
        if shared_side_pairs(g):
            continue
        audit = w_audit(g)
        assert audit.applicable
        assert audit.w_definition == audit.w_identity
        assert audit.w_identity == audit.epsilon2 * -audit.sigma_tight
        assert audit.record.ok
        checked += 1
    _report(4, checked >= 12, f"exact W route agreement on {checked} patches")


def test_criterion_5_accounting_identities():
    """Euler, face-edge and side-count identities plus the subdividing
    bound, exact on every valid patch; 6/7 n/a only with shared sides."""
    shared_corpus = [fixtures.square_diag(), fixtures.rect_l_shape(),
                     fixtures.offset_quad()]
    for k in range(4, 9):
        shared_corpus.append(_random_convex(k, k * 7))
    free_corpus = _share_free_corpus()

    for patch in free_corpus + shared_corpus:
        g = build_incidence(patch)
        rec = graph_audit(g)
        assert rec.ok and not rec.not_applicable_entries, patch.metadata
        asym = asymptotic_audit(patch, [])
        has_shared = bool(shared_side_pairs(g))
        for name in ("side_count_identity", "subdividing_vertex_bound"):
            want = Status.NA if has_shared else Status.PASS
            assert asym.get(name).status is want, (name, patch.metadata)

    # the share-free nonconvex fixture exercises e_part and improper
    # stretches through the same identities
    g = build_incidence(fixtures.notched_split())
    assert g.e_part == 1
    stretches, _ = decompose_stretches(g)
    assert any(s.klass.value == "improper" for s in stretches)
    asym = asymptotic_audit(fixtures.notched_split(), [])
    assert asym.get("side_count_identity").status is Status.PASS
    assert asym.get("subdividing_vertex_bound").status is Status.PASS
    _report(5, True,
            f"identities exact on {len(free_corpus) + len(shared_corpus)} patches "
            "including partial-boundary fixtures")


def test_criterion_6_reflection_invariants(rng):
    """100 random triangles x 3 reflection kinds: exact equal area and
    perimeter, congruent, kind recovered; apex set matches the ellipse
    oracle to 1e-30 relative error."""
    kinds = {"line": ReflectionKind.LINE_XY,
             "midpoint": ReflectionKind.MIDPOINT_XY,
             "bisector": ReflectionKind.PERP_BISECTOR_XY}
    tol = Decimal("1e-30")
    for i in range(100):
        t = rand_triangle(rng, scalene=True)
        x, y, z = t.a, t.b, t.c
        for kind, want in kinds.items():
            pair = gen_reflected_pair(t, kind)
            t1, t2 = pair.tiles
            assert t1.area == t2.area
            assert t1.perimeter() == t2.perimeter()
            assert congruence_check(t1, t2)
            other = next(tt for tt in pair.tiles if tt != t)
            zp = next(p for p in other.vertices if p not in (x, y))
            assert reflection_classify(x, y, z, zp) is want

        if i < 40:  # ellipse oracle on a healthy subsample
            got = sorted(equal_invariant_apexes(x, y, z), key=Point.key)
            oracle = ellipse_line_apexes(x, y, z)
            assert len(oracle) == len(got) == 4
            scale = max(Decimal(1), *(abs(v) for p in oracle for v in p))
            for p, (ox, oy) in zip(got, oracle):
                assert abs(dec(p.x) - ox) <= scale * tol
                assert abs(dec(p.y) - oy) <= scale * tol

    iso = equal_invariant_apexes(P(0, 0), P(4, 0), P(2, 3))
    assert len(iso) == 2
    _report(6, True, "100 triangles x 3 kinds exact; apex sets match the "
            "ellipse oracle to 1e-30")


def test_criterion_7_two_scale_patch():
    """10x10 two-scale patch: valid, share-free, interior big bases are
    composite, interior tiles within 3 hops of a composite side, and the
    b=2, h=433/250 side range encloses the exact endpoints; < 20 s."""
    start = time.monotonic()
    patch = gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), 10, 10))
    g = build_incidence(patch)
    assert shared_side_pairs(g) == []

    comp = composite_sides(g)
    comp_keys = {(tile, idx) for tile, idx, _ in comp}
    covers = {(tile, idx): cover for tile, idx, cover in comp}
    boundary_sides = {(r.tile, r.index) for e in g.soup.edges if len(e.incidences) == 1
                      for r in e.incidences}
    up_sq = patch.tiles[0].squared_sides()
    n_interior_bases = 0
    for i, tile in enumerate(patch.tiles):
        if tile.squared_sides() != up_sq:
            continue
        base_idx = next(s for s, (p, q) in enumerate(tile.sides())
                        if p.y == q.y)
        if (i, base_idx) in boundary_sides:
            continue
        n_interior_bases += 1
        assert (i, base_idx) in comp_keys, f"big tile {i} base not composite"
        assert len(covers[(i, base_idx)]) == 2
    assert n_interior_bases > 100

    # hop distances: multi-source BFS from composite owners
    targets = {tile for tile, _, _ in comp}
    adj = g.adjacency
    dist = {t: 0 for t in targets}
    frontier = sorted(targets)
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    boundary_tiles = {t for t, _ in boundary_sides}
    ball = set(boundary_tiles)
    for _ in range(3):
        ball |= {w for u in ball for w in adj[u]}
    interior = set(range(g.t)) - ball
    assert len(interior) > 50
    assert all(dist.get(t, 99) <= 3 for t in interior)
    for t in sorted(interior)[:5]:
        assert neighbor_hops_to_composite(g, t) == dist[t]

    lo, hi = side_length_range(patch, 70)
    assert lo.width <= F(1, 10 ** 20) and hi.width <= F(1, 10 ** 20)
    assert lo.lo ** 2 <= F(249989, 250000) <= lo.hi ** 2
    assert hi.contains(F(2))
    elapsed = time.monotonic() - start
    _report(7, elapsed < 20,
            f"600 tiles, {n_interior_bases} interior composite bases, "
            f"{len(interior)} interior tiles within 3 hops, in {elapsed:.2f}s")


def test_criterion_8_unit_perimeter_constants(rng):
    """Triangles with perimeter certified 1 within 1e-30: area at most
    sqrt(3)/36 + 1e-30 and min side at least 4*area - 1e-30."""
    tol = F(1, 10 ** 30)
    sqrt3_36 = LengthExpr.sqrt(3, F(1, 36))
    corpus = [Triangle(P(0, 0), P(F(1, 3), 0), P(0, F(1, 4))),
              Triangle(P(0, 0), P(F(1, 6), 0), P(0, F(2, 5)))]
    while len(corpus) < 102:
        t = rand_triangle(rng)
        iv = t.perimeter().refine(F(1, 10 ** 36))
        scale = 1 / iv.midpoint
        corpus.append(Triangle(*(Point(p.x * scale, p.y * scale)
                               for p in t.vertices)))
    for t in corpus:
        cert = t.perimeter().refine(F(1, 10 ** 32))
        assert 1 - tol <= cert.lo and cert.hi <= 1 + tol, "not near-unit"
        area = t.area
        slack = LengthExpr.rational(tol)
        assert (sqrt3_36 + slack - LengthExpr.rational(area)).sign() >= 0
        min_side = LengthExpr.sqrt(t.squared_sides()[0])
        assert (min_side - LengthExpr.rational(4 * area) + slack).sign() >= 0
    _report(8, True, f"{len(corpus)} near-unit triangles satisfy both "
            "constant bounds at 1e-30")


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical output on repeat runs."""
    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        return code, out.getvalue()

    generated = {}
    for name, argv in {
        "rec": ["generate", "recursive", "--t", "3/2", "--depth", "4"],
        "two": ["generate", "twoscale", "--m", "3", "--n", "2"],
        "con": ["generate", "convex", "--k", "7", "--seed", "9"],
        "pair": ["generate", "pair", "--kind", "line"],
    }.items():
        paths = []
        for rep in range(2):
            p = tmp_path / f"{name}{rep}.til"
            assert run(argv + ["-o", str(p)])[0] == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1], f"generate {name} not deterministic"
        generated[name] = tmp_path / f"{name}0.til"

    commands = []
    for name, path in generated.items():
        commands += [["validate", str(path)], ["stats", str(path)],
                     ["stretches", str(path)], ["audit", str(path)]]
    commands.append(["audit", str(generated["two"]), "--disk", "2,1,1"])
    for argv in commands:
        assert run(argv) == run(argv), f"{argv} not deterministic"

    for rep in range(2):
        svg = tmp_path / f"r{rep}.svg"
        assert run(["render", str(generated["rec"]), "-o", str(svg),
                    "--stretch-overlay", "--labels"])[0] == 0
    assert (tmp_path / "r0.svg").read_bytes() == (tmp_path / "r1.svg").read_bytes()
    _report(9, True, "all commands byte-identical across repeat runs")
