"""Outside-in tracing of the ``tritile`` package.

The tracer changes nothing under ``src/``.  It replaces every public
function of every loaded ``tritile`` module with a wrapper that records a
span (name, start, end, parent) and per-name counters, rebinds the names
that other ``tritile`` modules imported with ``from .x import y``, and
patches the methods of ``radicals.LengthExpr`` on the class.  In ``cli``
only ``main`` is wrapped, so that argument parsing, dispatch and record
rendering stay in ``cli.main``'s self time.

Span names are ``<module>.<function>`` or ``radicals.LengthExpr.<method>``.
Two group names sum over several spans: ``radicals.LengthExpr`` (any
method of the class) and ``generators`` (any public generator function).

Inclusive time is counted at the outermost active span of a name, so
recursion and nested methods are not counted twice.  Self time is a span's
duration minus the durations of its direct wrapped children.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

#: In ``cli`` the command handlers are private; ``build_parser`` is public
#: but counts as ``cli.main``'s own work (argparse), so only ``main`` is wrapped.
CLI_WRAPPED = ("main",)
LENGTH_EXPR = "radicals.LengthExpr"
# LengthExpr guards instance attributes; the guard is not a method to time.
LENGTH_EXPR_SKIPPED = ("__setattr__",)


class Tracer:
    """Span recorder for one interpreter.  Create one, then :meth:`install`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stats: list[list[float]] = []   # per name: [calls, inclusive_s, self_s]
        self._active: list[int] = []          # per name: current nesting depth
        self._stack: list[list] = []          # open spans: [span index, child seconds]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.max_bits = 0
        self.max_terms = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._stats.append([0, 0.0, 0.0])
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str, group: str | None = None, probe=None):
        own = self._id(name)
        ids = (own,) if group is None else (own, self._id(group))
        stats, active, stack = self._stats, self._active, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(own)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            for i in ids:
                active[i] += 1
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                for i in ids:
                    active[i] -= 1
                    entry = stats[i]
                    entry[0] += 1
                    if not active[i]:
                        entry[1] += duration
                stats[own][2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if probe is not None:
                probe(args, kwargs)
            return result

        return traced

    def _probe_bits(self, args, kwargs) -> None:
        bits = kwargs.get("bits", args[1] if len(args) > 1 else 0)
        if isinstance(bits, int) and bits > self.max_bits:
            self.max_bits = bits

    def _probe_terms(self, args, kwargs) -> None:
        terms = getattr(args[0], "terms", ()) if args else ()
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` (loaded ``tritile``
        modules, the package itself included) and rebind every name that
        refers to a wrapped function."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr not in CLI_WRAPPED:
                    continue
                group = "generators" if layer == "generators" else None
                wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", group)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
            if mod.__name__ == "tritile.radicals" and hasattr(mod, "LengthExpr"):
                self._install_class(mod.LengthExpr)

    def _install_class(self, cls) -> None:
        probes = {"enclosure": self._probe_bits, "__init__": self._probe_terms}
        for attr, raw in list(vars(cls).items()):
            if attr in LENGTH_EXPR_SKIPPED:
                continue
            name = f"{LENGTH_EXPR}.{attr}"
            probe = probes.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                fn = self._wrap(raw.__func__, name, LENGTH_EXPR, probe)
                setattr(cls, attr, type(raw)(fn))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name, LENGTH_EXPR, probe))

    def summary(self) -> dict:
        """Per-name ``[calls, inclusive_s, self_s]`` plus the probes."""
        return {
            "spans": len(self.span_start),
            "stats": {n: list(s) for n, s in zip(self.names, self._stats)},
            "max_bits": self.max_bits,
            "max_terms": self.max_terms,
        }

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the name ids
        (uint16), parent span indices (int32, -1 for a root), start and end
        times (float64, ``time.perf_counter`` seconds), each as one array."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:H", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
