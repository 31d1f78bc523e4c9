"""Benchmark of the tritile CLI on generated workloads.

Usage::

    python3 benchmarks/run.py --workload twoscale-6 --seed 1 --seconds 50 --trace 0

Stdlib only; the library is loaded from ``src/`` with no install.  Set-up
generates the workload's inputs with ``tritile generate``.  Each sample of
a command then runs in a fresh interpreter (``worker.py``), one at a time,
and is timed in-process around ``tritile.cli.main`` with interpreter start
and imports excluded.  Rounds of the four commands repeat until
``--seconds`` would be exceeded by one more round; every operation's exit
code, invariants (``workloads.py``) and byte-identical stdout across
samples are checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced round, wrapping the library from outside
(``tracer.py``), and reports the per-layer metrics, the tracing overhead
and the scaling exponents of four layers over pairs of inputs with 4x the
tiles.  The last line of stdout is one JSON object; the lines before it
are a readable table, and the full report is written to
``.bench_work/report-<workload>-trace<n>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (COMMANDS, QUICK_SCALE_PAIRS, SCALE_PAIRS, WORKLOADS, family_args,
                       input_stats, sections)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

CALLS, INCL, SELF = 0, 1, 2
# metric -> (unit, commands summed over (None: all four), span or group name, field)
LAYER_STATS = {
    "cli.main.self_s": ("s", None, "cli.main", SELF),
    "model.parse_tiling.s": ("s", None, "model.parse_tiling", INCL),
    "validate.validate_patch.s": ("s", None, "validate.validate_patch", INCL),
    "validate.validate_patch.self_s": ("s", None, "validate.validate_patch", SELF),
    "geometry.cross.calls": ("count", None, "geometry.cross", CALLS),
    "incidence.build_soup.s": ("s", None, "incidence.build_soup", INCL),
    "incidence.build_incidence.self_s": ("s", None, "incidence.build_incidence", SELF),
    "incidence.line_through.calls": ("count", None, "incidence.line_through", CALLS),
    "stretches.decompose_stretches.s": ("s", None, "stretches.decompose_stretches", INCL),
    "stretches.shared_side_pairs.s": ("s", None, "stretches.shared_side_pairs", INCL),
    "stretches.epsilon2.s": ("s", None, "stretches.epsilon2", INCL),
    "stretches.w_audit.self_s": ("s", None, "stretches.w_audit", SELF),
    "radicals.LengthExpr.calls": ("count", None, "radicals.LengthExpr.__init__", CALLS),
    "radicals.LengthExpr.s": ("s", None, "radicals.LengthExpr", INCL),
    "radicals.sign.calls": ("count", None, "radicals.LengthExpr.sign", CALLS),
    "radicals.sign.s": ("s", None, "radicals.LengthExpr.sign", INCL),
    "radicals.enclosure.calls": ("count", None, "radicals.LengthExpr.enclosure", CALLS),
    "extract.extract_disk_patch.self_s": ("s", None, "extract.extract_disk_patch", SELF),
    "extract.fill_holes.s": ("s", None, "extract.fill_holes", INCL),
    "extract.boundary_ring.s": ("s", None, "extract.boundary_ring", INCL),
    "extract.asymptotic_audit.self_s": ("s", None, "extract.asymptotic_audit", SELF),
    "svg.render_svg.self_s": ("s", None, "svg.render_svg", SELF),
    # redundant work per command, the target of one-analysis-per-patch
    "audit.validate_patch.calls": ("count", ("audit",), "validate.validate_patch", CALLS),
    "audit.build_soup.calls": ("count", ("audit",), "incidence.build_soup", CALLS),
    "audit.shared_side_pairs.calls": ("count", ("audit",), "stretches.shared_side_pairs", CALLS),
    "audit.epsilon2.calls": ("count", ("audit",), "stretches.epsilon2", CALLS),
    "audit_disk.validate_patch.calls": ("count", ("audit_disk",), "validate.validate_patch", CALLS),
    "audit_disk.build_soup.calls": ("count", ("audit_disk",), "incidence.build_soup", CALLS),
}
#: Layers whose inclusive time in ``audit`` is compared across each scaling pair.
SCALE_LAYERS = ("validate.validate_patch", "incidence.build_soup",
                "stretches.w_audit", "radicals.LengthExpr")


class BenchError(Exception):
    """Set-up or the harness itself failed; no result can be reported."""


def run_worker(ops: list[list[str]], trace: bool, tag: str, wdir: Path) -> dict:
    """Run ``ops`` through ``cli.main`` in a fresh interpreter."""
    job_path, result_path = wdir / f"{tag}.job.json", wdir / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    job = {"src": str(SRC), "ops": ops, "trace": trace, "result": str(result_path),
           "spans": str(wdir / f"{tag}.spans") if trace else None}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crash": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"crash": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def timing(samples: list[float]) -> dict:
    """Median, the highest tail percentile with enough samples beyond it,
    and the sample count."""
    out = {"median": statistics.median(samples), "samples": len(samples), "tail": None,
           "values": samples}
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            out["tail"] = {"percentile": p,
                           "value": ordered[min(len(ordered) - 1, math.ceil(len(ordered) * p / 100) - 1)]}
            break
    if out["tail"] is None:
        out["tail_na"] = f"{len(samples)} samples; p50 needs {2 * TAIL_MIN_BEYOND}"
    return out


class Run:
    """One benchmark run of one workload: set-up, samples and checks."""

    def __init__(self, workload, seed: int, quick: bool):
        self.workload, self.seed, self.quick = workload, seed, quick
        self.wdir = WORK / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[str, int], str] = {}
        self.maxrss_kb = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def setup(self, repeats: int, trace: bool) -> tuple[list[float], dict | None]:
        """Generate the inputs ``repeats`` times, each in a fresh
        interpreter; check they are identical, then apply the seed."""
        if self.wdir.exists():
            shutil.rmtree(self.wdir)
        (self.wdir / "inputs").mkdir(parents=True)
        (self.wdir / "svg").mkdir()
        stems = self.workload.inputs(self.seed, self.quick)
        self.paths = [str(self.wdir / "inputs" / f"{stem}.til") for stem, _ in stems]
        ops = [args + ["-o", path] for (_, args), path in zip(stems, self.paths)]
        times, trace_summary, first = [], None, None
        for i in range(repeats):
            res = run_worker(ops, trace and i == 0, f"setup{i}", self.wdir)
            if "crash" in res:
                raise BenchError(f"set-up: {res['crash']}")
            bad = [op for op in res["ops"] if op["rc"] != 0]
            if bad:
                raise BenchError(f"set-up: generate failed: {bad[0]['stderr'].strip()[-500:]}")
            digest = hashlib.sha256(b"".join(Path(p).read_bytes() for p in self.paths)).hexdigest()
            if first is None:
                first = digest
            elif digest != first:
                raise BenchError("set-up: generated inputs differ between repeats")
            times.append(res["elapsed_s"])
            trace_summary = trace_summary or res["trace"]
        for path in self.paths:
            self.workload.prepare(path, self.seed)
        self.stats = [input_stats(p) for p in self.paths]
        self.svgs = [str(self.wdir / "svg" / (Path(p).stem + ".svg")) for p in self.paths]
        return times, trace_summary

    def sample(self, command: str, trace: bool, tag: str) -> dict:
        """One sample of ``command`` over every input, checked."""
        ops = [self.workload.argv(command, p, s, self.quick) for p, s in zip(self.paths, self.svgs)]
        res = run_worker(ops, trace, tag, self.wdir)
        self.attempted += len(ops)
        if "crash" in res:
            self.failed += len(ops)
            self.fail(f"{command}: {res['crash']}")
            return res
        if not trace:
            self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        for i, op in enumerate(res["ops"]):
            problems = [] if op["rc"] == 0 else [f"exit code {op['rc']}: {op['stderr'].strip()[-300:]}"]
            if op["rc"] == 0:
                problems += self.workload.check(command, op["stdout"], self.quick)
                if command == "audit" and "vertices" not in self.stats[i]:
                    graph = sections(op["stdout"]).get("graph-audit", {})
                    self.stats[i]["vertices"] = int(graph.get("v", 0))
                    self.stats[i]["atomic_edges"] = int(graph.get("e", 0))
            digest = hashlib.sha256(op["stdout"].encode()).hexdigest()
            if command == "render" and op["rc"] == 0:
                svg = Path(self.svgs[i]).read_bytes()
                digest += hashlib.sha256(svg).hexdigest()
                if svg.count(b"<polygon") != self.stats[i]["tiles"]:
                    problems.append("render: not one <polygon per tile")
            if self.digests.setdefault((command, i), digest) != digest:
                problems.append("output differs from the first sample")
            if problems:
                self.failed += 1
                self.fail(f"{command} {Path(self.paths[i]).name}: {'; '.join(problems)}")
        return res

    def input_summary(self) -> dict:
        keys = ("tiles", "vertices", "atomic_edges", "bytes")
        summary = {"files": len(self.stats)}
        summary.update({k: sum(s.get(k, 0) for s in self.stats) for k in keys})
        summary["max_coord_bits"] = max(s["max_coord_bits"] for s in self.stats)
        return summary


def context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(),
    }


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(run: Run, seconds: float) -> dict:
    setup_times, _ = run.setup(SETUP_REPEATS, trace=False)
    samples = {c: [] for c in COMMANDS}
    started = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for command in COMMANDS:
            res = run.sample(command, False, command)
            if "crash" not in res:
                samples[command].append(res["elapsed_s"])
        rounds += 1
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    metrics = {"setup_s": dict(timing(setup_times), unit="s")}
    for command in COMMANDS:
        if not samples[command]:
            raise BenchError(f"no sample of {command} completed: {run.problems[:3]}")
        metrics[f"{command}_s"] = dict(timing(samples[command]), unit="s")
    metrics["peak_rss_mb"] = {"value": run.maxrss_kb / 1024, "unit": "MB"}
    return {"rounds": rounds, "metrics": metrics}


def layer_value(summaries: dict[str, dict], commands, name: str, field: int) -> float:
    total = 0
    for command, summary in summaries.items():
        if commands is None or command in commands:
            total += summary["stats"].get(name, [0, 0.0, 0.0])[field]
    return total


def traced(run: Run) -> dict:
    """One untraced and one traced round, then the scaling pairs."""
    _, setup_trace = run.setup(1, trace=True)
    untraced_total, summaries, traced_total = 0.0, {}, 0.0
    for trace in (False, True):
        for command in COMMANDS:
            res = run.sample(command, trace, f"{command}-trace{int(trace)}")
            if "crash" in res:
                raise BenchError(f"{command} (trace {int(trace)}): {res['crash']}")
            if trace:
                traced_total += res["elapsed_s"]
                summaries[command] = res["trace"]
            else:
                untraced_total += res["elapsed_s"]
    metrics = {}
    for name, (unit, commands, span, field) in LAYER_STATS.items():
        metrics[name] = {"value": layer_value(summaries, commands, span, field), "unit": unit}
    metrics["radicals.max_bits"] = {"value": max(s["max_bits"] for s in summaries.values()),
                                    "unit": "bits"}
    metrics["radicals.terms.max"] = {"value": max(s["max_terms"] for s in summaries.values()),
                                     "unit": "terms"}
    metrics["generators.s"] = {"value": setup_trace["stats"].get("generators", [0, 0.0])[INCL],
                               "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_total / untraced_total, "unit": "ratio"}
    metrics.update(scaling(run))
    spans = sum(s["spans"] for s in summaries.values())
    return {"metrics": metrics, "spans": spans,
            "untraced_total_s": untraced_total, "traced_total_s": traced_total}


def scaling(run: Run) -> dict:
    """``log(t_large / t_small) / log(tiles_large / tiles_small)`` of four
    layers' inclusive time in a traced ``audit``, for each family's pair of
    inputs with about 4x the tiles (600 -> 2400, 601 -> 2401)."""
    pairs = QUICK_SCALE_PAIRS if run.quick else SCALE_PAIRS
    sdir = run.wdir / "scale"
    sdir.mkdir()
    paths = {(fam, size): str(sdir / f"{fam}-{size}.til") for fam, sizes in pairs.items() for size in sizes}
    res = run_worker([family_args(fam, size) + ["-o", path] for (fam, size), path in paths.items()],
                     False, "scale-setup", run.wdir)
    if "crash" in res or any(op["rc"] != 0 for op in res["ops"]):
        raise BenchError(f"scaling set-up failed: {res.get('crash', res.get('ops'))}")
    times = {}
    for key, path in paths.items():
        res = run_worker([["audit", path]], True, f"scale-{key[0]}-{key[1]}", run.wdir)
        run.attempted += 1
        if "crash" in res or res["ops"][0]["rc"] != 0:
            run.failed += 1
            run.fail(f"scaling audit of {Path(path).name} failed")
            continue
        times[key] = res["trace"]["stats"]
    metrics = {}
    for fam, (small, large) in pairs.items():
        ratio = input_stats(paths[fam, large])["tiles"] / input_stats(paths[fam, small])["tiles"]
        for layer in SCALE_LAYERS:
            name = f"{fam}.{layer}.scale_exp"
            lo = times.get((fam, small), {}).get(layer, [0, 0.0])[INCL]
            hi = times.get((fam, large), {}).get(layer, [0, 0.0])[INCL]
            if lo > 0 and hi > 0:
                metrics[name] = {"value": math.log(hi / lo) / math.log(ratio), "unit": "exponent"}
            else:
                metrics[name] = {"value": 0, "unit": "exponent",
                                 "na": f"{layer} not timed in both audits of the pair"}
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run the benchmark once; return the full report."""
    run = Run(workload, seed, quick)
    part = traced(run) if trace else end_to_end(run, seconds)
    report = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "inputs": run.input_summary(),
        "context": context(), "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 0.0,
        "problems": run.problems,
    }
    report.update(part)
    return report


def result_line(report: dict) -> dict:
    metrics = {}
    for name, m in report["metrics"].items():
        metrics[name] = {"value": m["median"] if "median" in m else m["value"], "unit": m["unit"]}
        if "na" in m:
            metrics[name]["na"] = m["na"]
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}


def print_table(report: dict) -> None:
    ctx, inp = report["context"], report["inputs"]
    print(f"# workload {report['workload']} seed {report['seed']} trace {report['trace']}"
          f"{' quick' if report['quick'] else ''}: {report['why']}")
    print("# inputs: " + " ".join(f"{k} {v}" for k, v in inp.items()))
    print(f"# machine: python {ctx['python']} ({ctx['implementation']}), {ctx['platform']}, "
          f"nproc {ctx['nproc']}, commit {ctx['commit'] or 'n/a (not a git checkout)'}")
    for name, m in report["metrics"].items():
        if "median" in m:
            tail = (f"p{m['tail']['percentile']} {m['tail']['value']:.4f}" if m["tail"]
                    else f"tail n/a ({m['tail_na']})")
            print(f"{name:44s} median {m['median']:.4f} {m['unit']}  {tail}  samples {m['samples']}")
        elif "na" in m:
            print(f"{name:44s} n/a ({m['na']})")
        else:
            print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':44s} {report['failed']}/{report['attempted']} = {report['fail_ratio']:.4g}")
    for problem in report["problems"]:
        print(f"# problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if not (SRC / "tritile" / "cli.py").is_file():
        print(f"error: no tritile sources under {SRC}", file=sys.stderr)
        return 2
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.quick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_table(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
