import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import Point, RecursiveSplitSpec, build_incidence, gen_recursive_split
from tritile.cli import main
from tritile.model import parse_tiling


def run(argv, cwd):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def til(tmp_path):
    def make(name, *argv):
        path = tmp_path / name
        code, _, err = run(list(argv) + ["-o", str(path)], tmp_path)
        assert code == 0, err
        return str(path)
    return make


class TestGenerate:
    def test_recursive_writes_file(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--base", "0,0,1,0,0,1",
                   "--t", "2", "--depth", "3")
        patch = parse_tiling(Path(path).read_bytes())
        assert len(patch.tiles) == 10
        assert ("generator", "recursive") in patch.metadata

    def test_all_families(self, til):
        til("r.til", "generate", "recursive", "--depth", "2")
        til("t.til", "generate", "twoscale", "--m", "2", "--n", "2")
        til("c.til", "generate", "convex", "--k", "6", "--seed", "3")
        til("p.til", "generate", "pair", "--kind", "midpoint")

    def test_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "recursive"], tmp_path)  # missing -o
        assert err.value.code == 2

    def test_bad_rational_exit_1(self, tmp_path):
        code, _, err = run(["generate", "recursive", "--t", "x",
                            "-o", str(tmp_path / "x.til")], tmp_path)
        assert code == 1 and "error" in err


class TestValidate:
    def test_good_file_exit_0(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "1")
        code, out, _ = run(["validate", path], tmp_path)
        assert code == 0
        assert out.startswith("valid = yes")

    def test_overlap_exit_1(self, tmp_path):
        path = tmp_path / "bad.til"
        path.write_bytes(b"#TILING 1\ntri 0 0 4 0 2 3\ntri 0 2 4 2 2 -1\n")
        code, out, _ = run(["validate", str(path)], tmp_path)
        assert code == 1
        assert "OVERLAP" in out

    def test_parse_error_exit_1(self, tmp_path):
        path = tmp_path / "bad.til"
        path.write_bytes(b"#TILING 1\ntri 0 0 1 0 2 0\n")
        code, _, err = run(["validate", str(path)], tmp_path)
        assert code == 1
        assert "degenerate" in err

    @pytest.mark.parametrize("line", ["tri \u0660 0 1 0 0 1", "tri 0 0 \uff11/\uff12 0 0 1",
                                      "region +3 0 0 1 0 0 1", "region 0_3 0 0 1 0 0 1",
                                      "region \u0663 0 0 1 0 0 1"])
    def test_non_ascii_number_exit_1(self, tmp_path, line):
        path = tmp_path / "bad.til"
        path.write_bytes(f"#TILING 1\n{line}\n".encode("utf-8"))
        code, out, err = run(["validate", str(path)], tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2: malformed ")

    def test_missing_file_exit_1(self, tmp_path):
        code, _, err = run(["validate", str(tmp_path / "nope.til")], tmp_path)
        assert code == 1


class TestAudit:
    def test_recursive_passes(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--t", "2", "--depth", "3")
        code, out, _ = run(["audit", path], tmp_path)
        assert code == 0
        assert "euler" in out and "w_routes_agree" in out

    def test_expect_shared_on_fan(self, til, tmp_path):
        path = til("f.til", "generate", "convex", "--k", "4", "--seed", "0",
                   "--strategy", "fan")
        code, out, _ = run(["audit", path, "--expect-shared"], tmp_path)
        assert code == 0
        assert "pair = 0 1" in out

    def test_expect_none_fails_on_fan(self, til, tmp_path):
        path = til("f.til", "generate", "convex", "--k", "4", "--seed", "0",
                   "--strategy", "fan")
        code, out, _ = run(["audit", path, "--expect-none"], tmp_path)
        assert code == 1

    def test_invalid_file_exit_1(self, tmp_path):
        path = tmp_path / "bad.til"
        path.write_bytes(b"#TILING 1\ntri 0 0 4 0 2 3\ntri 0 0 4 0 2 3\n")
        code, out, _ = run(["audit", str(path)], tmp_path)
        assert code == 1

    def test_disk_extraction(self, til, tmp_path):
        path = til("t.til", "generate", "twoscale", "--m", "4", "--n", "4")
        code, out, _ = run(["audit", path, "--disk", "3,2,1"], tmp_path)
        assert code == 0
        assert "[extraction]" in out and "ring_t" in out

    def test_require_applicable_upgrades(self, til, tmp_path):
        path = til("f.til", "generate", "convex", "--k", "4", "--seed", "0",
                   "--strategy", "fan")
        assert run(["audit", path], tmp_path)[0] == 0
        assert run(["audit", path, "--require-applicable"], tmp_path)[0] == 1


class TestOtherCommands:
    def test_stretches(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "2")
        code, out, _ = run(["stretches", path], tmp_path)
        assert code == 0
        assert out.count("class=tight") == 6
        assert out.strip().endswith("total = 6")

    def test_stats(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "1")
        code, out, _ = run(["stats", path, "--precision-bits", "80"], tmp_path)
        assert code == 0
        assert "tiles = 4" in out and "min_side" in out

    @pytest.mark.parametrize("argv", [
        ["stats", "--precision-bits", "-1"],
        ["stats", "--precision-bits", "0"],
        ["render", "-o", "a.svg", "--width", "0"],
        ["render", "-o", "a.svg", "--width", "-5"],
    ])
    def test_out_of_range_number_exit_2(self, til, tmp_path, argv):
        path = til("a.til", "generate", "recursive", "--depth", "1")
        with pytest.raises(SystemExit) as err:
            run([argv[0], path, *argv[1:]], tmp_path)
        assert err.value.code == 2
        assert not (tmp_path / "a.svg").exists()

    def test_render(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "2")
        out_svg = tmp_path / "a.svg"
        code, _, _ = run(["render", path, "-o", str(out_svg),
                          "--stretch-overlay", "--labels"], tmp_path)
        assert code == 0
        data = out_svg.read_bytes()
        assert data.count(b"<polygon") == 7


class TestDeterminism:
    def test_reports_byte_identical(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--t", "3/2", "--depth", "4")
        runs = [run(["audit", path], tmp_path) for _ in range(2)]
        assert runs[0] == runs[1]
        runs = [run(["stats", path], tmp_path) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_generate_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a1.til", tmp_path / "a2.til"
        for p in (p1, p2):
            code, _, _ = run(["generate", "convex", "--k", "7", "--seed", "5",
                              "-o", str(p)], tmp_path)
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


def _statuses(report: str) -> list[tuple[str, str]]:
    """(section/name, status) for every check line of an audit report."""
    out, section = [], ""
    for line in report.splitlines():
        if line.startswith("["):
            section = line
            continue
        name, _, value = line.partition(" = ")
        status = value.rsplit(" ", 1)[-1]
        if status in ("pass", "fail", "n/a"):
            out.append((f"{section}{name}", status))
    return out


class TestHugeCoordinates:
    def test_audit_beyond_4096_bits_matches_small_case(self, tmp_path):
        results = []
        for n in (2 ** 10, 2 ** 4200):
            path = tmp_path / f"pair{n.bit_length()}.til"
            path.write_text(f"#TILING 1\ntri 0 0 {2 * n} 0 {n} 1\n"
                            f"tri 0 0 {2 * n} 0 {n} -2\n")
            code, out, err = run(["audit", str(path)], tmp_path)
            assert err == ""
            results.append((code, _statuses(out)))
        assert results[0][1]
        assert results[1] == results[0]


class TestInternalErrors:
    def test_exit_3_with_one_line(self, tmp_path, monkeypatch):
        import tritile.cli

        def boom(args):
            raise RuntimeError("broken\ninvariant")

        monkeypatch.setitem(tritile.cli._COMMANDS, "audit", boom)
        code, out, err = run(["audit", "unused.til"], tmp_path)
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: broken invariant\n"


class TestAnalysedOnce:
    """Every command analyses each patch once: one validation and one edge
    soup per patch, however many audits read them."""

    @staticmethod
    def _count(monkeypatch, name):
        import sys
        calls = []
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("tritile") or not hasattr(mod, name):
                continue
            fn = getattr(mod, name)
            if getattr(fn, "__module__", "").startswith("tritile"):
                def counted(*args, _fn=fn, **kwargs):
                    calls.append(1)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
        return calls

    @pytest.mark.parametrize("disk, expected", [(None, 1), ("2,3/2,1", 2)])
    def test_audit_counts(self, til, tmp_path, monkeypatch, disk, expected):
        path = til("t.til", "generate", "twoscale", "--m", "2", "--n", "2")
        validations = self._count(monkeypatch, "validate_patch")
        soups = self._count(monkeypatch, "build_soup")
        argv = ["audit", path] + (["--disk", disk] if disk else [])
        code, out, _ = run(argv, tmp_path)
        assert code == 0 and "[asymptotic-audit]" in out
        # with --disk: the ambient patch and the extracted piece, once each
        assert (len(validations), len(soups)) == (expected, expected)

    def test_generated_patch_reuses_its_validation(self, monkeypatch):
        validations = self._count(monkeypatch, "validate_patch")
        base = (Point.of(0, 0), Point.of(1, 0), Point.of(0, 1))
        build_incidence(gen_recursive_split(RecursiveSplitSpec(base, Fraction(2), 3)))
        assert len(validations) == 1

    def test_generate_validates_once(self, tmp_path, monkeypatch):
        validations = self._count(monkeypatch, "validate_patch")
        code, _, _ = run(["generate", "twoscale", "--m", "2", "--n", "2",
                          "-o", str(tmp_path / "t.til")], tmp_path)
        assert code == 0 and len(validations) == 1
