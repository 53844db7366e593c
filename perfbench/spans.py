"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions of wpcalc's modules with wrappers
that record one span per call: name, start, end and the enclosing span.
Spans live in flat arrays, so a pass with a million calls costs tens of
megabytes, not hundreds.  Self time is a span's duration minus the time
its direct child spans cover; calls are single-threaded, so children
never overlap.
"""

from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = {}  # span index -> value from the wrapper's tag function
        self._stack = [-1]
        self._restore = []

    def wrap(self, owner, attr, name, tag=None):
        """Replace ``owner.attr`` by a recording wrapper until ``restore``."""
        original = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, tags = self._stack, self.tag

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if tag is not None:
                tags[idx] = tag(*args)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        n = len(self.name)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += own[i]
        return array("d", (own[i] - child[i] for i in range(n)))

    def summary(self):
        """{name: {"calls": n, "self_s": seconds}} over every span of each name."""
        selfs = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(len(self.name)):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
        return out

    def top_level(self, name):
        """Indices of spans of ``name`` with no span of the same name above them."""
        nid = self._ids.get(name)
        out = []
        for i in range(len(self.name)):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                out.append(i)
        return out
