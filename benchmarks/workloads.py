"""Workloads: how each one's inputs are generated, the commands run on
them, and the invariants their outputs must keep.

Every workload runs the same four commands on its inputs: ``validate``,
``audit``, ``audit --disk`` and ``render --stretch-overlay --labels``.
The inputs come from ``tritile generate`` during set-up.  The checks are
invariants of the tiling family, never digests of the output, so a change
to a generator's seeded output does not have to edit the benchmark.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

COMMANDS = ("validate", "audit", "audit_disk", "render")

_NUMBER = re.compile(r"-?\d+")


@dataclass(frozen=True)
class Workload:
    """One workload: a name, the reason it exists, and its inputs."""

    name: str
    why: str
    disk: str
    family: str            # "twoscale", "recursive" or "convex"
    size: int              # grid side, recursion depth, or seeds per k
    quick_size: int        # the same, for the harness self-test
    quick_disk: str

    def inputs(self, seed: int, quick: bool) -> list[tuple[str, list[str]]]:
        """(file stem, ``generate`` arguments without ``-o``) per input."""
        size = self.quick_size if quick else self.size
        if self.family != "convex":
            return [(self.name, family_args(self.family, size))]
        return [(f"k{k}-s{s:02d}", ["generate", "convex", "--k", str(k),
                                     "--seed", str(s * 31 + k + seed)])
                for k in range(4, 9) for s in range(size)]

    def prepare(self, path: str, seed: int) -> None:
        """Apply the seed to a generated file.  The two fixed families get
        their tile lines shuffled, so a later claim can be checked on a
        tile order it was not tuned on; the convex corpus already depends
        on the seed through the generator."""
        if self.family != "convex":
            shuffle_tiles(path, random.Random(f"{self.name}:{seed}"))

    def argv(self, command: str, path: str, svg: str, quick: bool) -> list[str]:
        if command == "validate":
            return ["validate", path]
        if command == "audit":
            return ["audit", path]
        if command == "audit_disk":
            return ["audit", path, "--disk", self.quick_disk if quick else self.disk]
        return ["render", path, "-o", svg, "--stretch-overlay", "--labels"]

    def check(self, command: str, stdout: str, quick: bool) -> list[str]:
        """Problems with one operation's stdout (empty when it is correct)."""
        if command == "validate":
            return [] if "valid = yes" in stdout.splitlines() else ["validate did not say 'valid = yes'"]
        if command == "render":
            return []
        problems = [f"failed check: {line[:160]}" for line in stdout.splitlines()
                    if line.rsplit(" ", 1)[-1] == "fail"]
        sec = sections(stdout)
        for key in ("euler", "face_edge_count"):
            if not passed(sec, "graph-audit", key):
                problems.append(f"graph-audit {key} did not pass")
        if self.family == "twoscale":
            if sec.get("shared-sides", {}).get("count") != "0":
                problems.append("shared-sides count is not 0")
            if not passed(sec, "w-audit", "w_routes_agree"):
                problems.append("w_routes_agree did not pass")
        elif self.family == "recursive":
            depth = self.quick_size if quick else self.size
            w = sec.get("w-audit", {})
            if w.get("sigma_tight") != str(3 * depth):
                problems.append(f"sigma_tight is {w.get('sigma_tight')}, not {3 * depth}")
            if w.get("e_full") != "3":
                problems.append(f"w-audit e_full is {w.get('e_full')}, not 3")
        else:
            if not passed(sec, "eq1-audit", "vertex_identity"):
                problems.append("vertex_identity did not pass")
            count = sec.get("shared-sides", {}).get("count", "")
            if not count.isdigit() or int(count) == 0:
                problems.append("no shared sides in a convex triangulation")
        return problems


def family_args(family: str, size: int) -> list[str]:
    """``generate`` arguments for a two-scale grid or a recursive split."""
    if family == "twoscale":
        return ["generate", "twoscale", "--b", "2", "--h", "433/250",
                "--m", str(size), "--n", str(size)]
    return ["generate", "recursive", "--depth", str(size)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "twoscale-6",
        "216 tiles of small rationals, ~70 boundary edges: O(n^2) simplicity checks and "
        "Fraction-keyed soups dominate; the only workload where disk extraction does real work",
        disk="6,5,9", family="twoscale", size=6, quick_size=2, quick_disk="2,3/2,1"),
    Workload(
        "recursive-100",
        "301 tiles, up to 43-digit coordinates, triangular boundary: LengthExpr "
        "canonicalisation and sign() on big radicands dominate; boundary checks are nearly free",
        disk="0,0,100", family="recursive", size=100, quick_size=4, quick_disk="0,0,1"),
    Workload(
        "convex-25",
        "25 convex triangulations of 2-6 tiles (k=4..8, 5 seeds each): the same layers as "
        "many tiny calls, so per-invocation overhead and repeated soups dominate",
        disk="0,0,1/4", family="convex", size=5, quick_size=2, quick_disk="0,0,1/4"),
)}

#: Scaling pairs of the traced run: (family, small size, large size), 4x the tiles.
SCALE_PAIRS = {"twoscale": (10, 20), "recursive": (200, 800)}
QUICK_SCALE_PAIRS = {"twoscale": (1, 2), "recursive": (2, 8)}


def sections(stdout: str) -> dict[str, dict[str, str]]:
    """``[title]`` blocks of an audit report as {title: {name: value}};
    the first of repeated names wins."""
    out: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in stdout.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1], {})
        elif " = " in line:
            name, value = line.split(" = ", 1)
            current.setdefault(name, value)
    return out


def passed(sec: dict[str, dict[str, str]], title: str, name: str) -> bool:
    return sec.get(title, {}).get(name, "").rsplit(" ", 1)[-1] == "pass"


def shuffle_tiles(path: str, rng: random.Random) -> None:
    """Permute the ``tri`` lines of a TILING/1 file; other lines stay first."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    head = [ln for ln in lines if not ln.startswith("tri ")]
    tiles = [ln for ln in lines if ln.startswith("tri ")]
    rng.shuffle(tiles)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(head + tiles) + "\n")


def input_stats(path: str) -> dict[str, int]:
    """Tiles, largest coordinate bit length (numerator or denominator)
    and size in bytes of a TILING/1 file."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    tiles = sum(1 for ln in text.splitlines() if ln.startswith("tri "))
    bits = max((int(n).bit_length() for n in _NUMBER.findall(text)), default=0)
    return {"tiles": tiles, "max_coord_bits": bits, "bytes": len(text.encode())}
