"""In-memory spans and counters recorded around calls into isingkit.

The benchmark never edits the package: a ``Tracer`` replaces a public
function at the module attribute through which the workload reaches it with
a wrapper that records one span per call (name, start, end, parent, task),
then puts the original back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "attrs")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task          # shared by a top-level call and its children
        self.start = self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": index.get(id(self.parent)), "task": self.task,
                "attrs": self.attrs}


class Tracer:
    """Wrap module attributes with span-recording or counting functions."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.tasks = 0
        self._stack = []
        self._patches = []       # (owner, attribute, wrapper, original)

    # -- wrapping --------------------------------------------------------

    def span(self, owner, attr, name, on_return=None):
        """Record a span around every call of ``owner.attr``.

        ``on_return(span, args, kwargs, result)`` runs after the span has
        ended, to attach sizes or counts read off the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack:
                parent = tracer._stack[-1]
                span = Span(name, parent, parent.task)
            else:
                tracer.tasks += 1
                span = Span(name, None, tracer.tasks)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, wrapper, original))

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, wrapper, original))

    def tap(self, owner, attr, sink):
        """Hand every result of ``owner.attr`` to ``sink``; no span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            sink(result)
            return result

        self._patches.append((owner, attr, wrapper, original))

    # -- activation --------------------------------------------------------

    def __enter__(self):
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, _, original in reversed(self._patches):
            setattr(owner, attr, original)
        return False

    # -- analysis ----------------------------------------------------------

    def children(self):
        kids = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(id(s.parent), []).append(s)
        return kids

    def self_times(self):
        """Span id -> duration minus the part covered by its child spans."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered = 0.0
            hi = None
            for c in sorted(kids.get(id(s), ()), key=lambda c: c.start):
                lo = c.start if hi is None else max(c.start, hi)
                if c.end > lo:
                    covered += c.end - lo
                hi = c.end if hi is None else max(hi, c.end)
            out[id(s)] = s.duration - covered
        return out

    def sanity_problems(self):
        """Spans whose self time is negative or that leave their parent."""
        problems = []
        for s in self.spans:
            if s.end < s.start:
                problems.append(f"{s.name}: ends before it starts")
            p = s.parent
            if p is not None and not (p.start <= s.start and s.end <= p.end):
                problems.append(f"{s.name} is not nested inside {p.name}")
        selfs = self.self_times()
        problems.extend(f"{s.name}: negative self time"
                        for s in self.spans if selfs[id(s)] < 0)
        return problems

    def dump(self):
        index = {id(s): k for k, s in enumerate(self.spans)}
        return {"spans": [s.as_dict(index) for s in self.spans],
                "counts": dict(self.counts)}


def tail_value(values):
    """Highest order statistic with at least ten samples above it.

    Returns None when there are fewer than eleven samples.
    """
    if len(values) < 11:
        return None
    return sorted(values)[len(values) - 11]


def median(values):
    """Median, or None when there are no samples."""
    return statistics.median(values) if values else None
