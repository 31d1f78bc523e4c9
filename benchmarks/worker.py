"""Run one sample: a list of ``tritile`` CLI commands in this interpreter.

Usage: ``python3 worker.py JOB.json``.  The job names the ``src``
directory, the argument lists to pass to ``tritile.cli.main`` one after
the other, whether to trace, and where to write the result.  Interpreter
start and imports happen before the clock starts; the timed region is the
loop of ``cli.main`` calls, with stdout and stderr captured in memory.
The result holds the elapsed seconds, every exit code and output, the
peak resident set size of this interpreter and, when traced, the tracer's
per-name counters (the spans themselves go to the job's ``spans`` file).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import tritile  # noqa: F401  (loads every module before tracing and timing)
    import tritile.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install([m for name, m in sorted(sys.modules.items())
                        if name == "tritile" or name.startswith("tritile.")])
    cli_main = tritile.cli.main

    captured = []
    start = time.perf_counter()
    for argv in job["ops"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an internal error escaping the CLI is a failed operation
                rc = None
                err.write(traceback.format_exc())
        captured.append((rc, out, err))
    elapsed = time.perf_counter() - start

    result = {
        "elapsed_s": elapsed,
        "ops": [{"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
                for rc, out, err in captured],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
