"""Metamorphic tests of the audits: a tile permutation, a uniform
similarity, an isometry or a TILING/1 round trip changes the input but no
audit's verdict."""

import random
import re
from fractions import Fraction

import pytest

from tritile import (Point, RecursiveSplitSpec, TilingPatch, TwoScaleSpec,
                     apply_affine, asymptotic_audit, build_incidence,
                     decompose_stretches, epsilon2, eq1_audit,
                     gen_recursive_split, gen_two_scale_periodic, graph_audit,
                     no_shared_side_conditions, parse_tiling, serialize_tiling,
                     w_audit)
from tritile.report import Status

import fixtures
from test_random_patches import random_refined_patch

F = Fraction
P = Point.of
SCALE_3 = ((F(3), F(0)), (F(0), F(3)))
#: a scale whose images need a larger common denominator than the input
SCALE_1_7 = ((F(1, 7), F(0)), (F(0), F(1, 7)))
ORIGIN = (F(0), F(0))
#: isometries with rational entries, as (matrix, translation); the quarter
#: turn makes horizontal lines vertical
ISOMETRIES = {
    "quarter-turn": (((F(0), F(-1)), (F(1), F(0))), ORIGIN),
    "rotation-3-4-5": (((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))), ORIGIN),
    "reflection": (((F(1), F(0)), (F(0), F(-1))), ORIGIN),
    "translation": (((F(1), F(0)), (F(0), F(1))), (F(1, 3), F(-2, 5))),
}
INTEGER = re.compile(r"-?[0-9]+")


def _corpus():
    rng = random.Random(6)
    base = (P(0, 0), P(1, 0), P(0, 1))
    patches = [fixtures.notched_split(), fixtures.square_diag()]
    patches += [gen_recursive_split(RecursiveSplitSpec(
        base, F(rng.randint(3, 9), 2), rng.randint(1, 4))) for _ in range(4)]
    patches += [gen_two_scale_periodic(TwoScaleSpec(F(2), F(433, 250), m, n))
                for m, n in ((2, 2), (3, 2))]
    patches += [random_refined_patch(seed) for seed in range(500, 508)]
    return patches


def _records(patch: TilingPatch):
    """The records `tritile audit` prints."""
    g = build_incidence(patch)
    return [graph_audit(g), eq1_audit(g), no_shared_side_conditions(g),
            w_audit(g).record, asymptotic_audit(patch, [])]


def _statuses(patch: TilingPatch) -> list[tuple[str, str, Status]]:
    """(record, entry, status) of every entry `tritile audit` prints."""
    return [(rec.title, e.name, e.status) for rec in _records(patch) for e in rec.entries]


def _verdicts(patch: TilingPatch) -> list[tuple[str, str, Status, str | None]]:
    """Every entry's status, with the value of each integer-valued info entry."""
    return [(rec.title, e.name, e.status,
             e.value if e.status is Status.INFO and INTEGER.fullmatch(e.value) else None)
            for rec in _records(patch) for e in rec.entries]


def _stretch_profile(patch: TilingPatch) -> list[tuple[str, int]]:
    """The multiset of (class, size) over the stretches."""
    stretches, _ = decompose_stretches(build_incidence(patch))
    return sorted((s.klass.value, s.size) for s in stretches)


def _permuted(patch: TilingPatch, rng: random.Random) -> TilingPatch:
    tiles = list(patch.tiles)
    rng.shuffle(tiles)
    return TilingPatch(tuple(tiles), patch.region, patch.metadata)


def test_audits_keep_their_verdicts_under_permutation_and_scaling():
    rng = random.Random(20261018)
    w_passes = 0
    for patch in _corpus():
        want = _statuses(patch)
        eps2 = epsilon2(patch)
        for _ in range(2):
            moved = _permuted(patch, rng)
            assert _statuses(moved) == want
            assert epsilon2(moved) == eps2
            scaled = apply_affine(moved, SCALE_3)
            assert _statuses(scaled) == want
            assert epsilon2(scaled) == eps2 * 3
            shrunk = apply_affine(moved, SCALE_1_7)
            assert _statuses(shrunk) == want
            assert epsilon2(shrunk) == eps2 * F(1, 7)
        w_passes += ("w-audit", "w_routes_agree", Status.PASS) in want
    # the share-free recursive and two-scale patches, where W applies
    assert w_passes >= 7


@pytest.mark.parametrize("move", [*ISOMETRIES, "round-trip"])
def test_isometries_and_round_trip_keep_verdicts_eps2_and_stretches(move):
    for patch in _corpus():
        if move == "round-trip":
            moved = parse_tiling(serialize_tiling(patch))
        else:
            moved = apply_affine(patch, *ISOMETRIES[move])
        assert _verdicts(moved) == _verdicts(patch)
        assert epsilon2(moved) == epsilon2(patch)
        assert _stretch_profile(moved) == _stretch_profile(patch)
