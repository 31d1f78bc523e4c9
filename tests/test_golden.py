"""Golden-file regression tests for the command line.

`tests/golden/` holds four small inputs: a 2x2 two-scale grid, depth-4 and
depth-12 recursive splits, whose squared sides reach 4 and 11 digits, and
a k=6 convex triangulation.  With them it keeps the exact stdout of
`audit`, `audit --disk`, `audit --unit-perimeter`, `stretches`, `stats` and
`stats --precision-bits 256` on each, the SVG written by
`render --stretch-overlay --labels`, and the exit codes.
It also holds hand-made invalid inputs (`invalid-*.til`) with the exact
stdout of `validate` on each: the kind, tiles, text and order of every
violation.  Any refactor must keep all of them byte-identical.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tritile.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: name -> (`generate` arguments, disk for `audit --disk`)
CASES = {
    "twoscale-2": (["twoscale", "--b", "2", "--h", "433/250", "--m", "2", "--n", "2"],
                   "2,3/2,1"),
    "recursive-4": (["recursive", "--depth", "4"], "0,0,1"),
    "recursive-12": (["recursive", "--depth", "12"], "0,0,9"),
    "convex-6": (["convex", "--k", "6", "--seed", "7"], "0,0,1/9"),
}

#: invalid inputs, `invalid-<name>.til`; `validate` exits 1 on each.  Each
#: `<name>-frac` is `<name>` mapped by x -> x/3 + (1/5, 0), so that every
#: point in its report has a denominator
_INVALID = ("annulus", "bowtie", "clockwise-region", "comb", "crossing", "crossing-region",
            "disconnected", "island", "missing-tile", "spike-region", "star-region", "touching")
INVALID = _INVALID + tuple(f"{name}-frac" for name in _INVALID) + ("pinched-disconnected",)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def outputs(name: str, til: str, workdir: Path) -> dict[str, tuple[int, bytes]]:
    """(exit code, bytes) of every golden command on the input file."""
    disk = CASES[name][1]
    result = {}
    for cmd, argv in (("audit", ["audit", til]),
                      ("audit_disk", ["audit", til, "--disk", disk]),
                      ("audit_unit_perimeter", ["audit", til, "--unit-perimeter"]),
                      ("stretches", ["stretches", til]),
                      ("stats", ["stats", til])):
        code, text = _run(argv)
        result[f"{cmd}.txt"] = (code, text.encode("utf-8"))
    svg = workdir / f"{name}.svg"
    code, _ = _run(["render", til, "-o", str(svg), "--stretch-overlay", "--labels"])
    result["svg"] = (code, svg.read_bytes())
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_generate_reproduces_golden_input(name, tmp_path):
    path = tmp_path / f"{name}.til"
    code, _ = _run(["generate", *CASES[name][0], "-o", str(path)])
    assert code == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.til").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    got = outputs(name, str(GOLDEN / f"{name}.til"), tmp_path)
    for suffix, (code, data) in got.items():
        assert code == codes[f"{name}.{suffix}"], suffix
        assert data == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


def stats256(name: str) -> bytes:
    """`stats --precision-bits 256`: enclosures well past the 64-bit default."""
    code, text = _run(["stats", str(GOLDEN / f"{name}.til"), "--precision-bits", "256"])
    assert code == 0
    return text.encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_high_precision_stats_match_golden(name):
    assert stats256(name) == (GOLDEN / f"{name}.stats256.txt").read_bytes()


@pytest.mark.parametrize("name", INVALID)
def test_validate_invalid_matches_golden(name):
    code, text = _run(["validate", str(GOLDEN / f"invalid-{name}.til")])
    assert code == 1
    assert text.encode("utf-8") == (GOLDEN / f"invalid-{name}.validate.txt").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (gen_args, _) in sorted(CASES.items()):
            til = GOLDEN / f"{name}.til"
            code, _ = _run(["generate", *gen_args, "-o", str(til)])
            assert code == 0, name
            for suffix, (code, data) in outputs(name, str(til), Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
                codes[f"{name}.{suffix}"] = code
            (GOLDEN / f"{name}.stats256.txt").write_bytes(stats256(name))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    for name in INVALID:
        code, text = _run(["validate", str(GOLDEN / f"invalid-{name}.til")])
        assert code == 1, name
        (GOLDEN / f"invalid-{name}.validate.txt").write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
