"""Spans around qflow's public functions, recorded from outside the package.

A span is one call of a wrapped function: the index of its name, its start
and end on the perf_counter clock, and the span that was open when it
started (-1 for a root).  Spans are kept in flat arrays in memory and
reduced to per-name call counts and self times after a run.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Coverage is the share of a time window that root spans
cover; on a single thread the self times of all spans sum to that share.
"""

import functools
import sys
import time
from array import array

PACKAGE = "qflow"


class Tracer:
    """Wraps the named functions and records one span per call.

    ``install`` rebinds every name in qflow's modules that refers to
    a wrapped function, including names bound by ``from`` imports, and
    ``restore`` puts every original back.
    """

    def __init__(self, spans):
        self.spans = tuple(spans)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._saved = []

    def install(self):
        prefix = PACKAGE + "."
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(prefix))]
        try:
            for idx, span in enumerate(self.spans):
                module_name, attr = span.split(".")
                original = getattr(sys.modules[prefix + module_name], attr)
                wrapper = self._wrap(idx, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
        except (KeyError, AttributeError):
            self.restore()
            raise

    def restore(self):
        while self._saved:
            module, key, original = self._saved.pop()
            setattr(module, key, original)

    def bindings(self):
        """(module name, attribute) of every binding currently wrapped."""
        return [(module.__name__, key) for module, key, _ in self._saved]

    def clear(self):
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]

    def _wrap(self, idx, fn):
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()

        return wrapper

    def summary(self, t0, t1):
        """Per-span calls and self time, and the coverage of [t0, t1]."""
        return summarize(self.spans, self.name, self.start, self.end, self.parent, t0, t1)


def summarize(span_names, name, start, end, parent, t0, t1):
    """Reduce spans to ``({span: (calls, self_s)}, coverage)``.

    Spans must be listed in order of their start, as a tracer appends them,
    so that the children of each span arrive sorted and the union of their
    intervals, clipped to the parent, builds up in one sweep.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)
    root_covered = 0.0
    root_reach = t0
    for k in range(n):
        p = parent[k]
        if p < 0:
            lo, hi = max(start[k], root_reach), min(end[k], t1)
            if hi > lo:
                root_covered += hi - lo
                root_reach = hi
        else:
            lo, hi = max(start[k], reach[p]), min(end[k], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    calls = [0] * len(span_names)
    self_s = [0.0] * len(span_names)
    for k in range(n):
        calls[name[k]] += 1
        self_s[name[k]] += end[k] - start[k] - covered[k]
    per_span = {s: (calls[i], self_s[i]) for i, s in enumerate(span_names)}
    return per_span, root_covered / (t1 - t0)
