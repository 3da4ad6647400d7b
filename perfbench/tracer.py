"""Span tracing of the aisles modules, installed from outside the package.

A `Tracer` replaces each probed function with a wrapper in every place
inside the `aisles` package that binds it: module attributes (so a name
imported with `from .repcore import hom_space` is wrapped in `extspace`
and `torsion` too), values of module-level dicts (the CLI suite table)
and class attributes (methods).  Span probes record one span per call:
name index, parent span, start and end, kept in flat arrays in memory.
Count probes only count calls; they stand where only the count is
wanted or a span would cost about as much as the call it measures.  `restore()` puts every original
binding back, and `dump()` writes the spans out when the run ends.

`aggregate()` turns the spans into per-probe calls, inclusive time and
self time (duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

PACKAGE = "aisles"


def resolve(location):
    """Find a probed callable and its owner from a dotted location below
    the package: ``module.function``, ``module.Class.method`` or
    ``module.DICT.key``.  Returns (owner, key, original)."""
    parts = location.split(".")
    owner = sys.modules[f"{PACKAGE}.{parts[0]}"]
    for part in parts[1:-1]:
        owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
    key = parts[-1]
    if isinstance(owner, dict):
        return owner, key, owner[key]
    if isinstance(owner, type):
        return owner, key, owner.__dict__[key]
    return owner, key, getattr(owner, key)


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span and call-count recorder for one traced invocation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts = {}
        self.observed = {}
        self._stack = [-1]
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        index = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        seen = self.observed.setdefault(name, set()) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe:
                seen.update(observe(result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, probes):
        """Wrap every probe: (name, location, kind, observe) with kind
        "span" or "count"; observe maps a span's result to the items it
        adds to ``observed[name]``, or is None."""
        modules = _package_modules()
        for name, location, kind, observe in probes:
            owner, key, original = resolve(location)
            if kind == "span":
                wrapper = self._span_wrapper(name, original, observe)
            else:
                wrapper = self._count_wrapper(name, original)
            if isinstance(owner, type):
                self._rebind(owner, key, original, wrapper, setattr)
            self._rebind_everywhere(modules, original, wrapper)

    def _rebind(self, owner, key, original, wrapper, setter):
        setter(owner, key, wrapper)
        self._undo.append((owner, key, original, setter))

    def _rebind_everywhere(self, modules, original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, wrapper, setattr)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._rebind(value, k, original, wrapper, _setitem)

    def restore(self):
        """Put every original binding back, newest first."""
        while self._undo:
            owner, key, original, setter = self._undo.pop()
            setter(owner, key, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write the spans and counts: a JSON header line, then the four
        span arrays back to back."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.span_name),
            "counts": self.counts,
            "observed": {k: len(v) for k, v in self.observed.items()},
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _setitem(container, key, value):
    container[key] = value


def load(path):
    """Read a file written by `Tracer.dump`: (header, names, parents,
    starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def self_times(span_parent, span_start, span_end):
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent and one after another, so their
    durations add up to the part of the parent they cover.  The result is
    clamped at zero against float rounding in the subtraction."""
    covered = array.array("d", bytes(8 * len(span_parent)))
    for sid, parent in enumerate(span_parent):
        if parent >= 0:
            covered[parent] += span_end[sid] - span_start[sid]
    return array.array(
        "d",
        (max(0.0, end - start - c) for start, end, c in zip(span_start, span_end, covered)),
    )


def aggregate(names, span_name, span_parent, span_start, span_end):
    """Per probe name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  Spans are stored in start order and a parent
    precedes its children, so a stack of open spans tells which names
    are already open above a span."""
    own = self_times(span_parent, span_start, span_end)
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    depth = [0] * len(names)
    stack = []  # (span id, name index) of the open spans
    for sid, k in enumerate(span_name):
        while stack and stack[-1][0] != span_parent[sid]:
            depth[stack.pop()[1]] -= 1
        entry = stats[names[k]]
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        if depth[k] == 0:
            entry["s"] += span_end[sid] - span_start[sid]
        depth[k] += 1
        stack.append((sid, k))
    return stats
