import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (Point, RecursiveSplitSpec, TilingPatch, Triangle,
                     TwoScaleSpec, asymptotic_audit, boundary_ring,
                     build_incidence, extract_disk_patch, fill_holes,
                     gen_recursive_split, gen_two_scale_periodic,
                     parse_tiling, restrict_to_disk, serialize_tiling, validate_patch)
from tritile.cli import main
from tritile.report import Status
from tritile.validate import DISCONNECTED, RegionError

import fixtures
from fixtures import triangle_contains, triangle_sq_dist

F = Fraction
P = Point.of

GOLDEN = Path(__file__).parent / "golden"


def two_scale(m=3, n=3):
    return gen_two_scale_periodic(TwoScaleSpec(F(1), F(1), m, n))


def closures_touch(t1: Triangle, t2: Triangle) -> bool:
    """Brute-force oracle: do two interior-disjoint triangles touch?"""
    if any(triangle_contains(t2, p) for p in t1.vertices):
        return True
    if any(triangle_contains(t1, p) for p in t2.vertices):
        return True
    def turn(o, a, b):
        return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)

    for a, b in t1.sides():
        for c, d in t2.sides():
            if turn(a, b, c) * turn(a, b, d) < 0 and turn(c, d, a) * turn(c, d, b) < 0:
                return True
    return False


def fill_oracle(ambient: TilingPatch, selected: set[int]) -> set[int] | None:
    """The component-by-component fill: None unless the selection is
    connected (vertex contact counts); else the selection plus every
    complementary component, by side adjacency among unselected tiles,
    that has no ambient boundary edge."""
    graph = build_incidence(ambient)
    touch = {i: set() for i in range(graph.t)}
    for tiles in graph.soup.incident_tiles.values():
        for a in tiles:
            touch[a].update(tiles)
    seen, frontier = {min(selected)}, [min(selected)]
    while frontier:
        for w in touch[frontier.pop()] & selected - seen:
            seen.add(w)
            frontier.append(w)
    if seen != selected:
        return None
    return holes_filled(ambient, selected)


def holes_filled(ambient: TilingPatch, selected: set[int]) -> set[int]:
    """The selection plus every complementary component, by side adjacency
    among unselected tiles, that has no ambient boundary edge."""
    graph = build_incidence(ambient)
    on_ambient_boundary = {e.incidences[0].tile for e in graph.boundary_edges}
    unseen = set(range(graph.t)) - selected
    result = set(selected)
    while unseen:
        comp, stack = {min(unseen)}, [min(unseen)]
        while stack:
            for w in graph.adjacency[stack.pop()] & unseen - comp:
                comp.add(w)
                stack.append(w)
        unseen -= comp
        if not comp & on_ambient_boundary:
            result |= comp
    return result


def ring_oracle(ambient: TilingPatch, inside: set[int]) -> list[int]:
    """The edge-rule ring: outside tiles at an endpoint of an ambient edge
    with exactly one tile inside."""
    graph = build_incidence(ambient)
    boundary_pts = {p for e in graph.soup.edges if sum(t in inside for t in e.tiles) == 1
                    for p in (e.a, e.b)}
    return sorted({t for p in boundary_pts for t in graph.soup.incident_tiles.get(p, ())} - inside)


def seeded_disks(patch: TilingPatch, rng):
    """40 random centres around the patch, each with three squared radii:
    some tile's exact distance, its box distance and a random one."""
    xs = [p.x for t in patch.tiles for p in t.vertices]
    ys = [p.y for t in patch.tiles for p in t.vertices]

    def gap(values, v):
        return max(min(values) - v, v - max(values), 0)

    for _ in range(40):
        c = Point(min(xs) + (max(xs) - min(xs)) * F(rng.randint(-8, 72), 64),
                  min(ys) + (max(ys) - min(ys)) * F(rng.randint(-8, 72), 64))
        t = rng.choice(patch.tiles)
        box = (gap([p.x for p in t.vertices], c.x) ** 2
               + gap([p.y for p in t.vertices], c.y) ** 2)
        for r_sq in (triangle_sq_dist(t, c), box, F(rng.randint(1, 400), 16)):
            if r_sq > 0:
                yield c, r_sq


class TestRestrict:
    def test_tiny_disk_inside_one_tile(self):
        patch = two_scale(2, 2)
        # centroid of tile 0, radius far below its inradius
        t = patch.tiles[0]
        c = P((t.a.x + t.b.x + t.c.x) / 3, (t.a.y + t.b.y + t.c.y) / 3)
        got = restrict_to_disk(patch, c, F(1, 10 ** 6))
        assert got == {0}

    def test_huge_disk_takes_everything(self):
        patch = two_scale(2, 2)
        got = restrict_to_disk(patch, P(0, 0), F(10 ** 4))
        assert got == set(range(len(patch.tiles)))

    def test_vertex_center_takes_all_incident(self):
        patch = fixtures.square_diag()
        got = restrict_to_disk(patch, P(0, 0), F(1, 100))
        assert got == {0, 1}  # both tiles have the corner (0,0)

    def test_nested_radii_monotone(self):
        patch = two_scale(3, 2)
        c = P(F(2), F(1))
        prev = set()
        for r_sq in (F(1, 4), F(1), F(4), F(16)):
            cur = restrict_to_disk(patch, c, r_sq)
            assert prev <= cur
            prev = cur

    def test_open_disk_strictness(self):
        # tile at squared distance exactly r_sq is excluded
        patch = TilingPatch((Triangle(P(0, 0), P(1, 0), P(0, 1)),
                             Triangle(P(1, 0), P(2, 0), P(1, 1)),))
        assert triangle_sq_dist(patch.tiles[1], P(0, 0)) == 1
        assert restrict_to_disk(patch, P(0, 0), F(1)) == {0}
        assert restrict_to_disk(patch, P(0, 0), F(101, 100)) == {0, 1}

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            restrict_to_disk(fixtures.square_diag(), P(0, 0), F(0))

    @pytest.mark.parametrize("name, disk", [
        ("twoscale-2", (P(2, F(3, 2)), F(1))),
        ("recursive-4", (P(0, 0), F(1))),
        ("convex-6", (P(0, 0), F(1, 9))),
    ])
    def test_box_prefilter_keeps_selection(self, name, disk, rng):
        # the selection equals the unfiltered one, also on disks whose
        # squared radius is exactly some tile's distance or box distance
        patch = parse_tiling((GOLDEN / f"{name}.til").read_text())
        xs = [p.x for t in patch.tiles for p in t.vertices]
        ys = [p.y for t in patch.tiles for p in t.vertices]

        def gap(values, v):
            return max(min(values) - v, v - max(values), 0)

        disks = [disk]
        for _ in range(40):
            c = Point(min(xs) + (max(xs) - min(xs)) * F(rng.randint(-8, 72), 64),
                      min(ys) + (max(ys) - min(ys)) * F(rng.randint(-8, 72), 64))
            t = rng.choice(patch.tiles)
            box = (gap([p.x for p in t.vertices], c.x) ** 2
                   + gap([p.y for p in t.vertices], c.y) ** 2)
            for r_sq in (triangle_sq_dist(t, c), box, F(rng.randint(1, 400), 16)):
                if r_sq > 0:
                    disks.append((c, r_sq))
        for c, r_sq in disks:
            assert restrict_to_disk(patch, c, r_sq) == {
                i for i, t in enumerate(patch.tiles) if triangle_sq_dist(t, c) < r_sq}


class TestFillHoles:
    def test_already_simply_connected_unchanged(self):
        patch = two_scale(2, 2)
        got, ids = fill_holes(patch, set(range(len(patch.tiles))))
        assert got.tiles == patch.tiles
        assert ids == list(range(len(patch.tiles)))

    def test_ring_gets_filled(self):
        patch = two_scale(3, 3)
        g = build_incidence(patch)
        # drop one interior tile from the full selection
        interior = next(
            i for i in range(g.t)
            if all(len(e.incidences) == 2
                   for e in g.soup.edges if i in e.tiles))
        selection = set(range(g.t)) - {interior}
        got, ids = fill_holes(patch, selection)
        assert ids == list(range(g.t))
        assert validate_patch(got).ok

    def test_disconnected_selection_rejected(self):
        patch = two_scale(3, 1)
        with pytest.raises(RegionError) as err:
            fill_holes(patch, {0, len(patch.tiles) - 1})
        assert err.value.kind == DISCONNECTED

    def test_disconnected_selections_rejected_as_disconnected(self):
        # random selections whose tiles, holes filled, fall apart by vertex
        # contact, pinched parts among them: the kind is DISCONNECTED every time
        rng = random.Random(9)
        ambients = [parse_tiling((GOLDEN / f"{name}.til").read_text())
                    for name in ("twoscale-2", "recursive-4", "convex-6")]
        ambients += [fixtures.rect_l_shape(), fixtures.notched_split(), fixtures.offset_quad(),
                     two_scale(3, 2)]
        tried = 0
        for ambient in ambients:
            n = len(ambient.tiles)
            for _ in range(60):
                selected = set(rng.sample(range(n), rng.randint(2, max(2, n // 3))))
                filled = holes_filled(ambient, selected)
                seen, stack = {min(filled)}, [min(filled)]
                while stack:
                    t = ambient.tiles[stack.pop()]
                    for j in filled - seen:
                        if closures_touch(t, ambient.tiles[j]):
                            seen.add(j)
                            stack.append(j)
                if seen == filled:
                    continue
                tried += 1
                with pytest.raises(RegionError) as err:
                    fill_holes(ambient, selected)
                assert err.value.kind == DISCONNECTED, (ambient.tiles[:1], sorted(selected))
        assert tried >= 150

    def test_nested_selection_filled(self):
        # the inner tile lies in the hole of the outer ring of three
        patch = gen_recursive_split(RecursiveSplitSpec((P(0, 0), P(1, 0), P(0, 1)), F(2), 2))
        piece, ids = fill_holes(patch, {0, 4, 5, 6})
        assert piece.tiles == patch.tiles and ids == list(range(len(patch.tiles)))

    def test_idempotent(self):
        patch = two_scale(3, 2)
        sel = restrict_to_disk(patch, P(2, 1), F(2))
        once, ids = fill_holes(patch, sel)
        again, again_ids = fill_holes(patch, set(ids))
        assert again_ids == ids and again.tiles == once.tiles

    def test_no_spurious_additions(self):
        patch = two_scale(3, 2)
        sel = restrict_to_disk(patch, P(2, 1), F(4))
        _, ids = fill_holes(patch, sel)
        # a disk selection of a valid patch has no holes to fill
        assert ids == sorted(sel)


class TestBoundaryRing:
    def test_full_patch_has_empty_ring(self):
        patch = two_scale(2, 2)
        assert boundary_ring(patch, list(range(len(patch.tiles)))) == []

    def test_single_tile_ring_matches_touch_oracle(self):
        patch = two_scale(3, 3)
        g = build_incidence(patch)
        inner = next(
            i for i in range(g.t)
            if all(len(e.incidences) == 2
                   for e in g.soup.edges if i in e.tiles))
        got = boundary_ring(patch, [inner])
        want = sorted(i for i, t in enumerate(patch.tiles)
                      if i != inner and closures_touch(t, patch.tiles[inner]))
        assert got == want

    @staticmethod
    def split_squares():
        """A 2x2 block of unit squares, each split along its diagonal."""
        tiles = []
        for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
            a, b, c, d = P(x, y), P(x + 1, y), P(x + 1, y + 1), P(x, y + 1)
            tiles += [Triangle(a, b, c), Triangle(a, c, d)]
        return tuple(tiles)

    def test_vertex_contact_included(self):
        # two split squares sharing only the corner (1,1) inside a 2x2 block
        tiles = self.split_squares()
        ring = boundary_ring(TilingPatch(tiles), [0, 1])
        # tile 7 = upper triangle of block (1,1): touches (1,1) only
        assert 6 in ring
        assert set(ring) == {2, 3, 4, 5, 6, 7}

    def test_not_a_subset_rejected(self):
        # ids that name no ambient tile
        patch = two_scale(2, 1)
        for ids in ([len(patch.tiles)], [-1], [0, 100]):
            with pytest.raises(ValueError):
                boundary_ring(patch, ids)


def matches_oracles(ambient: TilingPatch, selected: set[int]) -> tuple[set[int], list[int]]:
    """Assert that fill_holes and boundary_ring agree with the oracles on
    a connected selection; the piece's tile indices and the ring."""
    want = fill_oracle(ambient, selected)
    assert want is not None
    piece, ids = fill_holes(ambient, selected)
    assert ids == sorted(want)
    assert piece.tiles == tuple(ambient.tiles[i] for i in ids)
    ring = boundary_ring(ambient, ids)
    assert ring == ring_oracle(ambient, want)
    return want, ring


class TestAgainstOracles:
    @pytest.mark.parametrize("name, disk", [
        ("twoscale-2", (P(2, F(3, 2)), F(1))),
        ("recursive-4", (P(0, 0), F(1))),
        ("convex-6", (P(0, 0), F(1, 9))),
        ("recursive-5", (P(0, 0), F(1))),
    ])
    def test_disk_extractions(self, name, disk, rng):
        if name == "recursive-5":
            patch = gen_recursive_split(RecursiveSplitSpec((P(0, 0), P(1, 0), P(0, 1)), F(2), 5))
        else:
            patch = parse_tiling((GOLDEN / f"{name}.til").read_text())
        touch_checked = 0
        for c, r_sq in [disk, *seeded_disks(patch, rng)]:
            selected = restrict_to_disk(patch, c, r_sq)
            if not selected:
                continue
            piece, ring = matches_oracles(patch, selected)
            if touch_checked < 8:
                touch_checked += 1
                assert ring == [i for i, t in enumerate(patch.tiles) if i not in piece
                                and any(closures_touch(t, patch.tiles[j]) for j in piece)]
        assert touch_checked == 8

    def test_whole_minus_interior_blob(self, rng):
        patch = two_scale(4, 3)
        g = build_incidence(patch)
        interior = set(range(g.t)) - {e.incidences[0].tile for e in g.boundary_edges}
        filled = 0
        for _ in range(40):
            blob = {rng.choice(sorted(interior))}
            for _ in range(rng.randint(0, 6)):
                grow = sorted(set().union(*(g.adjacency[i] for i in blob)) & interior - blob)
                if grow:
                    blob.add(rng.choice(grow))
            selected = set(range(g.t)) - blob
            filled += matches_oracles(patch, selected)[0] != selected
        assert filled >= 20


class TestExtraction:
    def test_disk_pipeline(self):
        patch = two_scale(4, 4)
        res = extract_disk_patch(patch, P(3, 2), F(1))
        assert validate_patch(res.patch).ok
        assert len(res.tiles) < len(patch.tiles)
        assert res.patch.tiles == tuple(patch.tiles[i] for i in res.tiles)
        assert res.ring
        assert not set(res.tiles) & set(res.ring)
        g = build_incidence(res.patch)
        assert g.e_full + g.e_part > 0

    def test_coverage_certificate(self):
        patch = two_scale(6, 6)
        center = P(F(9, 2), F(3))
        certified = extract_disk_patch(patch, center, F(1))
        assert certified.coverage_certificate
        too_big = extract_disk_patch(patch, center, F(16))
        assert not too_big.coverage_certificate


class TestPieceSharesItsAmbient:
    """The disk piece is a selection of its ambient: the ambient's grid tile
    objects, on the ambient grid's scale, with no new grid, so its rational
    tiles equal the ambient's."""

    CASES = {
        "twoscale": (lambda: two_scale(4, 4), P(3, 2), F(1)),
        "recursive": (lambda: gen_recursive_split(
            RecursiveSplitSpec((P(0, 0), P(1, 0), P(0, 1)), F(2), 5)), P(0, 0), F(1)),
        # the piece's own least scale has 10 bits, the ambient's 38
        "skew": (lambda: gen_recursive_split(
            RecursiveSplitSpec((P(0, 0), P(F(1, 3), 0), P(0, F(1, 7))), F(5, 3), 40)),
            P(0, 0), F(1)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_tiles_and_scale_are_the_ambients(self, name):
        make, center, r_sq = self.CASES[name]
        ambient = make()
        res = extract_disk_patch(ambient, center, r_sq)
        piece, ids = res.patch, res.tiles
        assert len(piece.tiles) == len(piece.grid.tiles) == len(ids)
        assert piece.tiles == tuple(ambient.tiles[i] for i in ids)
        assert all(t is ambient.grid.tiles[i] for t, i in zip(piece.grid.tiles, ids))
        assert piece.grid.scale == ambient.grid.scale
        # equality reads tiles, region and metadata, whatever the grid scale
        same = TilingPatch(piece.tiles, piece.region, piece.metadata)
        assert same == piece and hash(same) == hash(piece)
        # the same tiles on their least grid give the same audit
        plain = TilingPatch(piece.tiles)
        assert plain.grid == fixtures.lcm_grid(plain)
        if name == "skew":
            assert plain.grid.scale < ambient.grid.scale
        audits = [asymptotic_audit(p, res.ring, unit_perimeter=True, r_sq=r_sq,
                                   coverage_certificate=res.coverage_certificate).render()
                  for p in (piece, plain)]
        assert audits[0] == audits[1]

    def test_cli_disk_audit_builds_one_grid(self, tmp_path, monkeypatch):
        path = tmp_path / "t.til"
        path.write_bytes(serialize_tiling(self.CASES["skew"][0]()))
        from_grid = TilingPatch.from_grid.__func__
        calls = []

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return from_grid(cls, *args, **kwargs)

        monkeypatch.setattr(TilingPatch, "from_grid", classmethod(counted))
        with redirect_stdout(io.StringIO()) as out:
            assert main(["audit", str(path), "--disk", "0,0,1"]) == 0
        assert "selected_t = 15" in out.getvalue()
        assert len(calls) == 1  # the parser's; the piece builds none


class TestAsymptoticAudit:
    def test_recursive_full_patch(self):
        patch = gen_recursive_split(RecursiveSplitSpec(
            (P(0, 0), P(1, 0), P(0, 1)), F(2), 4))
        rec = asymptotic_audit(patch, [])
        assert rec.get("side_count_identity").status is Status.PASS
        assert rec.get("side_count_identity").value == "36 36"
        assert rec.get("subdividing_vertex_bound").status is Status.PASS
        assert rec.get("full_boundary_bound").status is Status.PASS
        assert rec.get("partial_boundary_bound").status is Status.PASS

    def test_notched_fixture_counts(self):
        rec = asymptotic_audit(fixtures.notched_split(), [])
        assert rec.get("side_count_identity").value == "11 11"
        assert rec.get("subdividing_vertex_bound").value == "8 8"
        assert rec.get("side_count_identity").status is Status.PASS
        # one partial boundary edge, no ring known, inequality violated -> n/a
        assert rec.get("partial_boundary_bound").status is Status.NA

    def test_shared_sides_na(self):
        rec = asymptotic_audit(fixtures.square_diag(), [])
        assert rec.get("side_count_identity").status is Status.NA
        assert rec.get("subdividing_vertex_bound").status is Status.NA

    def test_single_interior_tile_with_ring(self):
        patch = two_scale(3, 3)
        g = build_incidence(patch)
        inner = next(
            i for i in range(g.t)
            if all(len(e.incidences) == 2
                   for e in g.soup.edges if i in e.tiles))
        sub, ids = fill_holes(patch, {inner})
        ring = boundary_ring(patch, ids)
        rec = asymptotic_audit(sub, ring)
        assert rec.get("partial_boundary_bound").status is Status.PASS
        assert rec.get("partial_boundary_bound").value == f"0 {3 * len(ring)}"

    def test_unit_perimeter_checks(self):
        tile = Triangle(P(0, 0), P(F(1, 3), 0), P(0, F(1, 4)))
        patch = TilingPatch((tile,), tile.vertices)
        rec = asymptotic_audit(patch, [], unit_perimeter=True)
        assert rec.get("unit_perimeter").status is Status.PASS
        assert rec.get("side_exceeds_4_min_area").status is Status.PASS
        assert rec.get("area_at_most_equilateral").status is Status.PASS

    def test_certificate_upgrades_failure(self):
        rec = asymptotic_audit(fixtures.notched_split(), [],
                               coverage_certificate=True)
        assert rec.get("partial_boundary_bound").status is Status.FAIL

    def test_unit_bound_on_an_extracted_piece(self):
        res = extract_disk_patch(two_scale(4, 4), P(3, 2), F(1))
        rec = asymptotic_audit(res.patch, res.ring, unit_perimeter=True,
                               coverage_certificate=res.coverage_certificate)
        entry = rec.get("full_boundary_bound_unit")
        assert (entry.value, entry.status) == ("11/2 31", Status.PASS)
        # with no ring the bound fails; certified, that is a failure, not n/a
        rec = asymptotic_audit(res.patch, [], unit_perimeter=True, coverage_certificate=True)
        entry = rec.get("full_boundary_bound_unit")
        assert (entry.value, entry.status) == ("11/2 0", Status.FAIL)
