"""Metamorphic tests of the audits: a tile permutation or a uniform
similarity changes the input but no audit's verdict."""

import random
from fractions import Fraction

from tritile import (Point, RecursiveSplitSpec, TilingPatch, TwoScaleSpec,
                     apply_affine, asymptotic_audit, build_incidence, epsilon2,
                     eq1_audit, gen_recursive_split, gen_two_scale_periodic,
                     graph_audit, no_shared_side_conditions, w_audit)
from tritile.report import Status

import fixtures
from test_random_patches import random_refined_patch

F = Fraction
P = Point.of
SCALE_3 = ((F(3), F(0)), (F(0), F(3)))


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


def _statuses(patch: TilingPatch) -> list[tuple[str, str, Status]]:
    """(record, entry, status) of every entry `tritile audit` prints."""
    g = build_incidence(patch)
    records = [graph_audit(g), eq1_audit(g), no_shared_side_conditions(g),
               w_audit(g).record, asymptotic_audit(patch, [])]
    return [(rec.title, e.name, e.status) for rec in records for e in rec.entries]


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
        w_passes += ("w-audit", "w_routes_agree", Status.PASS) in want
    # the share-free recursive and two-scale patches, where W applies
    assert w_passes >= 7
