"""The validator's simple-polygon check against a brute-force oracle.

`_simplicity_faults` sweeps in x order; the oracle below tests every pair
of segments and every (segment, vertex) pair on plain integers, with no
bounding boxes and none of the library's predicates, and must produce the
same crossings (with their points) and contacts in the same order.
"""

import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import Point, parse_tiling, validate_patch
from tritile.incidence import build_soup
from tritile.validate import _simplicity_faults

GOLDEN = Path(__file__).parent / "golden"


def turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strictly_inside(a, b, p):
    """p lies on the open segment ab (exact coordinates)."""
    return (turn(a, b, p) == 0
            and (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1]) > 0
            and (p[0] - b[0]) * (a[0] - b[0]) + (p[1] - b[1]) * (a[1] - b[1]) > 0)


def oracle(segments, scale=1):
    """All-pairs simplicity faults of integer segments ((x, y), (x, y)),
    reported as points divided by ``scale``, in the validator's order."""
    def point(x, y):
        return Point.of(Fraction(x, scale), Fraction(y, scale))

    crossings = []
    for i, (p, q) in enumerate(segments):
        for j in range(i + 1, len(segments)):
            r, s = segments[j]
            o1, o2, o3, o4 = turn(p, q, r), turn(p, q, s), turn(r, s, p), turn(r, s, q)
            if o1 * o2 < 0 and o3 * o4 < 0:
                t = Fraction(o3, o3 - o4)
                crossings.append((i, j, point(p[0] + (q[0] - p[0]) * t,
                                               p[1] + (q[1] - p[1]) * t)))
    vertices = sorted({v for seg in segments for v in seg})
    contacts = [(i, point(*v)) for i, (a, b) in enumerate(segments)
                for v in vertices if v not in (a, b) and strictly_inside(a, b, v)]
    return crossings, contacts


def as_points(segments):
    return [(Point.of(*a), Point.of(*b)) for a, b in segments]


def random_chain(rng):
    """A closed chain on the 0..6 grid with no zero-length segment; steps
    often keep x or y, so vertical and collinear segments are common."""
    while True:
        pts = [(rng.randint(0, 6), rng.randint(0, 6))]
        for _ in range(rng.randint(2, 11)):
            x, y = pts[-1]
            roll = rng.random()
            if roll < 0.3:
                nxt = (x, rng.randint(0, 6))
            elif roll < 0.5:
                nxt = (rng.randint(0, 6), y)
            else:
                nxt = (rng.randint(0, 6), rng.randint(0, 6))
            if nxt != pts[-1]:
                pts.append(nxt)
        if len(pts) >= 3 and pts[0] != pts[-1]:
            return [(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))]


def test_sweep_matches_oracle_on_random_grid_chains():
    rng = random.Random(4)
    seen = {"crossing": 0, "contact": 0, "vertical": 0, "collinear overlap": 0}
    for _ in range(600):
        segs = random_chain(rng)
        expected = oracle(segs)
        assert _simplicity_faults(as_points(segs)) == expected, segs
        seen["crossing"] += bool(expected[0])
        seen["contact"] += bool(expected[1])
        seen["vertical"] += any(a[0] == b[0] for a, b in segs)
        seen["collinear overlap"] += any(
            turn(a, b, c) == 0 and turn(a, b, d) == 0 and max(a, b) > min(c, d)
            and max(c, d) > min(a, b)
            for k, (a, b) in enumerate(segs) for c, d in segs[k + 1:])
    assert min(seen.values()) >= 100, seen


def _integer_segments(pairs):
    """Points scaled by the common denominator to integer tuples."""
    scale = math.lcm(*(c.denominator for seg in pairs for p in seg for c in (p.x, p.y)))
    return [tuple((int(p.x * scale), int(p.y * scale)) for p in seg) for seg in pairs], scale


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.til")), ids=lambda p: p.stem)
def test_sweep_matches_oracle_on_golden_inputs(path):
    patch = parse_tiling(path.read_text())
    chains = [[(e.a, e.b) for e in build_soup(patch.tiles).edges if len(e.incidences) == 1]]
    if patch.region is not None:
        n = len(patch.region)
        chains.append([(patch.region[k], patch.region[(k + 1) % n]) for k in range(n)])
    for chain in chains:
        segs, scale = _integer_segments(chain)
        assert _simplicity_faults(chain) == oracle(segs, scale)


def test_reported_crossings_lie_on_both_edges():
    patch = parse_tiling((GOLDEN / "invalid-crossing.til").read_text())
    sides = [tuple((p.x, p.y) for p in side) for t in patch.tiles for side in t.sides()]
    points = []
    for v in validate_patch(patch).violations:
        if "cross at" in v.detail:
            x, y = re.search(r"cross at \(([^,]+), ([^)]+)\)", v.detail).groups()
            points.append((Fraction(x), Fraction(y)))
    assert len(points) == len(set(points)) == 6
    for p in points:
        assert sum(strictly_inside(a, b, p) for a, b in sides) == 2, p


def test_staircase_scales():
    # 2002 segments whose x-ranges barely overlap: an all-pairs scan takes
    # tens of seconds in pure Python, the sweep well under one
    pts = [(0, 0)]
    for k in range(1000):
        pts += [(k, k + 1), (k + 1, k + 1)]
    pts.append((1000, 0))
    segs = as_points([(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))])
    start = time.perf_counter()
    assert _simplicity_faults(segs) == ([], [])
    assert time.perf_counter() - start < 5
