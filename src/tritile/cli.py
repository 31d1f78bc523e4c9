"""Command-line frontend: generate, validate, audit, inspect and render
tilings in the TILING/1 format.

Exit codes: 0 success, 1 failed checks or bad input data (an option too
large to compute with included), 2 usage error, 3 internal error (a bug:
one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from .extract import asymptotic_audit, extract_disk_patch
from .generators import (GeneratorError, RecursiveSplitSpec, TwoScaleSpec,
                         convex_polygon_on_circle, gen_convex_triangulation,
                         gen_recursive_split, gen_reflected_pair,
                         gen_two_scale_periodic)
from .geometry import Point, Triangle, parse_rational
from .incidence import build_incidence, graph_audit
from .model import TilingParseError, TilingPatch, parse_tiling, serialize_tiling, side_length_range
from .radicals import fraction_decimal
from .report import AuditRecord
from .stretches import eq1_audit, no_shared_side_conditions, w_audit
from .svg import render_svg


def _rationals(text: str, n: int) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated rationals")
    return [parse_rational(p.strip()) for p in parts]


_INT = re.compile(r"-?[0-9]+")
_NEGATIVE = re.compile(r"-[0-9]")
_LONG_OPTION = re.compile(r"--[a-z][a-z-]*")


def _int(text: str) -> int:
    """An integer option, in ASCII digits like TILING/1 numbers."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load(path: str) -> TilingPatch:
    with open(path, "rb") as fh:
        return parse_tiling(fh.read())


def _cmd_generate(args) -> int:
    if args.family == "recursive":
        coords = _rationals(args.base, 6)
        spec = RecursiveSplitSpec(
            (Point(coords[0], coords[1]), Point(coords[2], coords[3]),
             Point(coords[4], coords[5])),
            parse_rational(args.t), args.depth)
        patch = gen_recursive_split(spec)
    elif args.family == "twoscale":
        patch = gen_two_scale_periodic(TwoScaleSpec(
            parse_rational(args.b), parse_rational(args.height),
            args.m, args.n))
    elif args.family == "convex":
        poly = convex_polygon_on_circle(args.k, args.seed)
        patch = gen_convex_triangulation(poly, args.strategy, args.seed)
    else:
        coords = _rationals(args.triangle, 6)
        tri = Triangle(Point(coords[0], coords[1]), Point(coords[2], coords[3]),
                       Point(coords[4], coords[5]))
        patch = gen_reflected_pair(tri, args.kind)
    with open(args.output, "wb") as fh:
        fh.write(serialize_tiling(patch))
    print(f"wrote {len(patch.tiles)} tiles to {args.output}")
    return 0


def _cmd_validate(args) -> int:
    report = _load(args.file).validation
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    patch = _load(args.file)
    report = patch.validation
    if not report.ok:
        sys.stdout.write(report.render())
        return 1

    records: list[AuditRecord] = []
    graph = build_incidence(patch)
    shared = graph.decomposition[1]
    records.append(graph_audit(graph))
    records.append(eq1_audit(graph))
    records.append(no_shared_side_conditions(graph))
    records.append(w_audit(graph, unit_perimeter=args.unit_perimeter).record)

    summary = AuditRecord("shared-sides")
    summary.info("count", len(shared))
    for t1, t2, seg in shared:
        summary.info("pair", f"{t1} {t2} at {seg[0]}-{seg[1]}")
    if args.expect_shared:
        summary.check("expected_shared_side", bool(shared), len(shared), ">0")
    if args.expect_none:
        summary.check("expected_no_shared_sides", not shared, len(shared), 0)
    records.append(summary)

    if args.disk:
        cx, cy, r_sq = _rationals(args.disk, 3)
        extraction = extract_disk_patch(patch, Point(cx, cy), r_sq)
        info = AuditRecord("extraction")
        info.info("selected_t", extraction.t_count)
        info.info("ring_t", len(extraction.ring))
        info.info("e_full", extraction.e_full)
        info.info("e_part", extraction.e_part)
        info.info("coverage_certificate", extraction.coverage_certificate)
        records.append(info)
        records.append(asymptotic_audit(
            extraction.patch, extraction.ring,
            unit_perimeter=args.unit_perimeter,
            coverage_certificate=extraction.coverage_certificate,
            r_sq=r_sq))
    else:
        records.append(asymptotic_audit(patch, [], unit_perimeter=args.unit_perimeter))

    failed = 0
    for rec in records:
        sys.stdout.write(rec.render())
        failed += len(rec.failed)
        if args.require_applicable:
            failed += len(rec.not_applicable_entries)
    return 1 if failed else 0


def _cmd_stretches(args) -> int:
    patch = _load(args.file)
    stretches, shared = build_incidence(patch).decomposition
    for st in stretches:
        print(f"stretch {st.describe()}")
    for t1, t2, seg in shared:
        print(f"shared {t1} {t2} at {seg[0]}-{seg[1]}")
    print(f"total = {len(stretches)}")
    return 0


def _cmd_stats(args) -> int:
    patch = _load(args.file)
    graph = build_incidence(patch)
    rec = AuditRecord("stats")
    rec.info("tiles", graph.t)
    rec.info("vertices", graph.v)
    rec.info("edges", graph.e)
    rec.info("v_bd", graph.v_bd)
    rec.info("v_int", graph.v_int)
    rec.info("v_star", graph.v_star)
    rec.info("e_full", graph.e_full)
    rec.info("e_part", graph.e_part)
    rec.info("area_sum", patch.tile_area_sum())
    lo, hi = side_length_range(patch, args.precision_bits)
    digits = max(12, args.precision_bits // 3)
    rec.info("min_side", f"[{fraction_decimal(lo.lo, digits)}, {fraction_decimal(lo.hi, digits)}]")
    rec.info("max_side", f"[{fraction_decimal(hi.lo, digits)}, {fraction_decimal(hi.hi, digits)}]")
    rec.info("epsilon2", f"~{graph.eps2.decimal_str()}")
    sys.stdout.write(rec.render())
    return 0


def _cmd_render(args) -> int:
    patch = _load(args.file)
    svg = render_svg(patch, width_px=args.width,
                     stretch_overlay=args.stretch_overlay,
                     label_long_short=args.labels)
    with open(args.output, "wb") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def _adder(parser: argparse.ArgumentParser, dest: str, names, argv: Sequence[str]):
    """`add_parser` of required subparsers that lists every one of `names` in
    usage lines but builds only argv's first item if it is one (None for the rest)."""
    named = bool(argv) and argv[0] in names
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(names) + "}" if named else None)
    return lambda name, **kw: sub.add_parser(name, **kw) if not named or name == argv[0] else None


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of argv's command alone (of all if argv names none), with the full usage."""
    parser = argparse.ArgumentParser(
        prog="tritile",
        description="construct, validate and audit triangular tilings")
    add = _adder(parser, "command", _COMMANDS, argv)

    if gen := add("generate", help="generate a tiling family"):
        family = _adder(gen, "family", ("recursive", "twoscale", "convex", "pair"), argv[1:])
        if rec := family("recursive"):
            rec.add_argument("--base", default="0,0,1,0,0,1",
                             help="six rationals: the inner triangle")
            rec.add_argument("--t", default="2", help="expansion factor, rational > 1")
            rec.add_argument("--depth", type=_int, default=1)
        if two := family("twoscale"):
            two.add_argument("--b", default="1", help="big-triangle base")
            two.add_argument("--h", "--height", dest="height", default="1",
                             help="big-triangle height")
            two.add_argument("--m", type=_int, default=3)
            two.add_argument("--n", type=_int, default=3)
        if con := family("convex"):
            con.add_argument("--k", type=_int, default=5)
            con.add_argument("--seed", type=_int, default=0)
            con.add_argument("--strategy", choices=("fan", "random"), default="random")
        if pair := family("pair"):
            pair.add_argument("--triangle", default="0,0,4,0,1,3")
            pair.add_argument("--kind", choices=("line", "midpoint", "bisector"),
                              default="midpoint")
        for p in filter(None, (rec, two, con, pair)):
            p.add_argument("-o", "--output", required=True)

    if val := add("validate", help="check that a file is a tiling"):
        val.add_argument("file")

    if aud := add("audit", help="run the combinatorial audits"):
        aud.add_argument("file")
        aud.add_argument("--unit-perimeter", action="store_true")
        aud.add_argument("--disk", metavar="CX,CY,R2",
                         help="restrict to the open disk before auditing")
        aud.add_argument("--require-applicable", action="store_true",
                         help="treat n/a checks as failures")
        group = aud.add_mutually_exclusive_group()
        group.add_argument("--expect-shared", action="store_true")
        group.add_argument("--expect-none", action="store_true")

    if stre := add("stretches", help="print the stretch decomposition"):
        stre.add_argument("file")

    if stat := add("stats", help="print counts and side-length range"):
        stat.add_argument("file")
        stat.add_argument("--precision-bits", type=_positive_int, default=64)

    if ren := add("render", help="write an SVG figure"):
        ren.add_argument("file")
        ren.add_argument("-o", "--output", required=True)
        ren.add_argument("--width", type=_positive_int, default=800)
        ren.add_argument("--stretch-overlay", action="store_true")
        ren.add_argument("--labels", action="store_true")
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "audit": _cmd_audit,
    "stretches": _cmd_stretches,
    "stats": _cmd_stats,
    "render": _cmd_render,
}


def _joined_negative_values(argv: list[str]) -> list[str]:
    """`--opt -1,0` as `--opt=-1,0`, which argparse would read as two options."""
    out: list[str] = []
    for token in argv:
        if out and _LONG_OPTION.fullmatch(out[-1]) and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    # TILING/1 numbers have no length limit, so the command lifts CPython's
    # int<->str digit limit (3.10.7 and later) and then restores the caller's.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = _joined_negative_values(sys.argv[1:] if argv is None else argv)
        args = build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command](args)
    except (TilingParseError, GeneratorError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: report it in one line, not a traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
