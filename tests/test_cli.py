import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tritile import (Point, RecursiveSplitSpec, TwoScaleSpec, build_incidence,
                     gen_recursive_split, gen_two_scale_periodic, validate_patch)
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

    @pytest.mark.parametrize("base, message", [
        ("0,0,1,1,2,2", "base triangle is degenerate"),
        ("0,0,0,1,1,0", "base triangle must be counterclockwise"),
    ], ids=["collinear", "clockwise"])
    def test_bad_recursive_base_exit_1(self, tmp_path, base, message):
        out = tmp_path / "x.til"
        code, stdout, err = run(["generate", "recursive", "--base", base,
                                 "-o", str(out)], tmp_path)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()


class TestNegativeValues:
    """An option value that starts with a minus sign is a value, as in the
    `--opt=value` form: same stdout, exit code and output file."""

    @pytest.mark.parametrize("argv", [
        ["generate", "recursive", "--base", "-1,0,1,0,0,1", "--depth", "2"],
        ["generate", "pair", "--triangle", "-1,0,4,0,1,3"],
        ["generate", "recursive", "--t", "-3/2"],
    ])
    def test_generate(self, tmp_path, argv):
        out = tmp_path / "a.til"
        results = []
        for form in (argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]):
            out.unlink(missing_ok=True)
            results.append((run(form + ["-o", str(out)], tmp_path),
                            out.read_bytes() if out.exists() else None))
        assert results[0] == results[1]

    def test_negative_expansion_factor_is_the_generators_error(self, tmp_path):
        code, _, err = run(["generate", "recursive", "--t", "-3/2",
                            "-o", str(tmp_path / "x.til")], tmp_path)
        assert code == 1 and err == "error: expansion factor must exceed 1\n"

    def test_disk_left_of_the_origin(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "3")
        spaced = run(["audit", path, "--disk", "-1,0,1"], tmp_path)
        assert spaced[0] == 0 and "[extraction]" in spaced[1]
        assert run(["audit", path, "--disk=-1,0,1"], tmp_path) == spaced


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

    def test_disk_needs_three_rationals(self, til, tmp_path):
        path = til("a.til", "generate", "recursive", "--depth", "1")
        code, out, err = run(["audit", path, "--disk", "1,2"], tmp_path)
        assert (code, out, err) == (1, "", "error: expected 3 comma-separated rationals\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["render", "-o", "a.svg", "--width", "9" * 330],
         "integer division result too large for a float"),
        (["stats", "--precision-bits", "10000000000000000000000"],
         "too many digits in integer"),
    ], ids=["width", "precision-bits"])
    def test_too_large_option_exit_1(self, til, tmp_path, argv, message):
        # an option too large to compute with is bad input, not a bug
        path = til("a.til", "generate", "recursive", "--depth", "1")
        code, out, err = run([argv[0], path, *argv[1:]], tmp_path)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "a.svg").exists()

    @pytest.mark.parametrize("text", ["\u0663", "+3", "0_3"],
                             ids=["arabic-indic", "plus", "underscore"])
    @pytest.mark.parametrize("argv", [
        ["generate", "recursive", "-o", "OUT", "--depth"],
        ["generate", "twoscale", "-o", "OUT", "--m"],
        ["generate", "twoscale", "-o", "OUT", "--n"],
        ["generate", "convex", "-o", "OUT", "--k"],
        ["generate", "convex", "-o", "OUT", "--seed"],
        ["stats", "FILE", "--precision-bits"],
        ["render", "FILE", "-o", "OUT", "--width"],
    ], ids=lambda argv: argv[-1])
    def test_non_ascii_int_option_exit_2(self, til, tmp_path, argv, text):
        # integer options take ASCII digits only, like TILING/1 numbers
        path = til("a.til", "generate", "recursive", "--depth", "1")
        out_path = tmp_path / "out"
        argv = [{"FILE": path, "OUT": str(out_path)}.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
            main([*argv, text])
        assert exc.value.code == 2
        assert f"invalid int value: {text!r}" in err.getvalue()
        assert out.getvalue() == "" and not out_path.exists()

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


@pytest.fixture
def default_digit_limit():
    """CPython's default int<->str digit limit during the test, then the
    caller's again."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def _long_patch(tmp_path, digits: int) -> str:
    """One right triangle whose legs are 10**(digits - 1), written out."""
    n = "1" + "0" * (digits - 1)
    path = tmp_path / f"long{digits}.til"
    path.write_text(f"#TILING 1\ntri 0 0 {n} 0 0 {n}\n")
    return str(path)


class TestLongNumbers:
    """TILING/1 numbers have no length limit, so neither has the CLI: each
    command lifts CPython's int<->str digit limit, then restores it."""

    def test_long_radicand_is_audited_and_printed(self, tmp_path, default_digit_limit):
        path = _long_patch(tmp_path, 2201)
        code, out, err = run(["audit", path], tmp_path)
        assert (code, err) == (0, "")
        # 2*N - sqrt(2*N**2) for N = 10**2200: a 4401-digit radicand
        assert f"epsilon2 = 2{'0' * 2200} - sqrt(2{'0' * 4400}) (~" in out
        code, out, err = run(["stats", path], tmp_path)
        assert (code, err) == (0, "") and "epsilon2 = ~" in out

    def test_5001_digit_numbers_validate(self, tmp_path, default_digit_limit):
        code, out, err = run(["validate", _long_patch(tmp_path, 5001)], tmp_path)
        assert (code, out, err) == (0, "valid = yes\nboundary_vertices = 3\n", "")

    def test_5001_digit_denominators_validate(self, tmp_path, default_digit_limit):
        path = tmp_path / "frac5001.til"
        n = "1/1" + "0" * 5000
        path.write_text(f"#TILING 1\ntri 0 0 {n} 0 0 {n}\n")
        code, out, err = run(["validate", str(path)], tmp_path)
        assert (code, out, err) == (0, "valid = yes\nboundary_vertices = 3\n", "")
        code, out, err = run(["audit", str(path)], tmp_path)
        assert (code, err) == (0, "") and " fail\n" not in out

    def test_precision_past_the_digit_limit(self, tmp_path, default_digit_limit):
        golden = Path(__file__).parent / "golden" / "recursive-4.til"
        code, out, err = run(["stats", str(golden), "--precision-bits", "20000"], tmp_path)
        assert (code, err) == (0, "")
        assert len(max(out.splitlines(), key=len)) > 6666

    def test_callers_limit_restored(self, tmp_path, default_digit_limit):
        code, _, _ = run(["audit", _long_patch(tmp_path, 2201)], tmp_path)
        assert code == 0 and sys.get_int_max_str_digits() == default_digit_limit
        with pytest.raises(SystemExit):
            run(["audit"], tmp_path)  # usage error
        assert sys.get_int_max_str_digits() == default_digit_limit


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
        # a two-scale patch gets its derived region and keeps the report
        patch = gen_two_scale_periodic(TwoScaleSpec(Fraction(1), Fraction(1), 2, 2))
        build_incidence(patch)
        assert len(validations) == 2
        assert validate_patch(patch) == patch.validation

    def test_generate_validates_once(self, tmp_path, monkeypatch):
        validations = self._count(monkeypatch, "validate_patch")
        code, _, _ = run(["generate", "twoscale", "--m", "2", "--n", "2",
                          "-o", str(tmp_path / "t.til")], tmp_path)
        assert code == 0 and len(validations) == 1


GOLDEN_TIL = str(Path(__file__).parent / "golden" / "recursive-4.til")
COMMAND_NAMES = ("generate", "validate", "audit", "stretches", "stats", "render")
FAMILY_NAMES = ("recursive", "twoscale", "convex", "pair")


class TestParserPerCommand:
    """`main` builds only the parser of the command it runs; what the user
    sees (stdout, stderr, exit code) is what the full parser gives."""

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"],
        ["validate", "a", "b"], ["audit", "x", "--bogus"], ["audit"],
        ["generate"], ["generate", "bogus"], ["generate", "recursive"], ["render", "f"],
        ["stats", "f", "--precision-bits", "0"], ["audit", GOLDEN_TIL, "--disk", "-1,0,4"],
        ["generate", "recursive", "-o", "x", "extra"],
        *([name, "--help"] for name in COMMAND_NAMES),
        *(["generate", name, "--help"] for name in FAMILY_NAMES),
    ], ids=lambda argv: " ".join(argv).replace(GOLDEN_TIL, "f") or "no-args")
    def test_same_as_full_parser(self, argv, monkeypatch):
        import tritile.cli
        got = self.outcome(argv)
        full = tritile.cli.build_parser
        monkeypatch.setattr(tritile.cli, "build_parser", lambda argv=(): full())
        assert got == self.outcome(argv)
        assert got[0] in (0, 1, 2) and (got[1] or got[2])

    @pytest.mark.parametrize("argv, message", [
        ([], "tritile: error: the following arguments are required: command\n"),
        (["bogus"], "tritile: error: argument command: invalid choice: 'bogus'"),
        (["generate", "bogus"], "tritile generate: error: argument family: invalid choice: 'bogus'"),
        (["validate", "a", "b"], "tritile: error: unrecognized arguments: b\n"),
    ])
    def test_usage_names_every_command(self, argv, message):
        code, out, err = self.outcome(argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: tritile [-h] {{{','.join(COMMAND_NAMES)}}} ...\n"
                              if argv[:1] != ["generate"] else
                              f"usage: tritile generate [-h] {{{','.join(FAMILY_NAMES)}}} ...\n")
        assert message in err

    @pytest.mark.parametrize("argv, command, family", [
        (["validate", "a"], ("validate",), None),
        (["generate", "pair", "-o", "x"], ("generate",), ("pair",)),
        (["generate", "--help"], ("generate",), FAMILY_NAMES),
        (["--help"], COMMAND_NAMES, FAMILY_NAMES),
    ])
    def test_builds_only_the_named_subparsers(self, argv, command, family):
        from tritile.cli import build_parser

        def choices(parser):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return sub.choices

        top = choices(build_parser(argv))
        assert tuple(top) == command
        assert family is None or tuple(choices(top["generate"])) == family
