"""In-memory span and counter recorder used by the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
public functions of each tanprimes layer; the program itself is not
instrumented. Nothing is written until the op ends.
"""
from __future__ import annotations

import contextlib
import time


class Tracer:
    """Records spans (name, start, end, parent, op) and integer counters."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter_ns(), "end": None,
                           "parent": parent, "op": self.op})
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter_ns()

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def set_min(self, name: str, value: float) -> None:
        self.counts[name] = min(self.counts.get(name, value), value)


class NullTracer:
    """Same interface, records nothing: the untraced run of a library job."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n) -> None:
        pass

    def set_min(self, name: str, value: float) -> None:
        pass


def span_cost_ns(samples: int = 2000) -> float:
    """Measured cost of recording one empty span, in nanoseconds."""
    t = Tracer("calibrate")
    t0 = time.perf_counter_ns()
    for _ in range(samples):
        with t.span("x"):
            pass
    return (time.perf_counter_ns() - t0) / samples
