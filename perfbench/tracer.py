"""Spans recorded by the benchmark around its calls into the program.

A span is named ``<layer>.<call>``.  Spans nest: a span opened while another
is open is its child, and a span's self time is its duration minus the time
its children took.  Spans are aggregated by name as they close, and nested
counts are kept per (parent, child) pair, so that ratios such as integrate
time per family evaluation are measured where the work happens.

A disabled tracer records nothing: ``span`` returns a shared null context and
``wrap`` returns the callable unchanged, so untraced runs pay no per-call cost
inside the program's callbacks.
"""

import contextlib
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # [name, start, child time]
        self.totals: dict[str, SpanTotals] = {}
        self.nested: dict[tuple[str, str], SpanTotals] = {}

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        agg = self.totals.setdefault(name, SpanTotals())
        agg.calls += 1
        agg.total_s += duration
        agg.self_s += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            pair = self.nested.setdefault((parent[0], name), SpanTotals())
            pair.calls += 1
            pair.total_s += duration

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span (unchanged when disabled)."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def get(self, name: str) -> SpanTotals:
        return self.totals.get(name, SpanTotals())

    def inside(self, parent: str, name: str) -> SpanTotals:
        return self.nested.get((parent, name), SpanTotals())

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over the spans of each layer."""
        out: dict[str, float] = {}
        for name, agg in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + agg.self_s
        return out
