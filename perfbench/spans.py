"""Spans recorded around calls into the package, from outside it.

A ``Tracer`` replaces chosen functions and methods with wrappers that
record a span per call (name, start, end, parent) and restores the
originals when its ``with`` block ends, whatever happens inside. Spans
stay in memory. A span's self time is its duration minus the durations of
its children, which nest inside it because the calls are synchronous;
``aggregate`` sums it per span name.
"""
from __future__ import annotations

import functools
import statistics
import time
import types
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name, on_exit=None):
        """Register ``owner.attr`` for wrapping.

        ``name`` is a span name or a function of the call's (args, kwargs)
        returning one. ``on_exit(span, args, kwargs, result)`` runs after
        the span has closed, so its cost is not counted in the span.
        """
        self._targets.append((owner, attr, name, on_exit))
        return self

    def __enter__(self):
        for owner, attr, name, on_exit in self._targets:
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, on_exit))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrapper(self, fn, name, on_exit):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(span_name, tracer.clock(), parent=parent)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        return wrapper


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median time one span-recording wrapper adds to a call, in seconds."""
    probe = types.SimpleNamespace(noop=lambda: None)
    costs = []
    for _ in range(repeats):
        plain = probe.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        bare = time.perf_counter() - t0
        with Tracer().wrap(probe, "noop", "probe"):
            wrapped = probe.noop
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - t0 - bare) / calls)
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, child_s)]


def aggregate(spans) -> dict:
    """Per span name: call count and total self time in seconds."""
    out: dict[str, dict] = {}
    for s, t in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"count": 0, "self_s": 0.0})
        agg["count"] += 1
        agg["self_s"] += t
    return out
