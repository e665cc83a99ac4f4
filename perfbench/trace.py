"""Spans recorded from the benchmark's own code around calls into quantir.

The program itself is not instrumented: each span wraps a call the
benchmark makes into one module's public functions.  Spans stay in memory
and are written out when the run ends.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: ``(name, start, end, parent index)``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def duration(self, index: int) -> float:
        """Seconds of the span at ``index`` (negative counts from the end)."""
        _, t0, t1, _ = self.spans[index]
        return t1 - t0

    def mark(self) -> int:
        """Position to pass to :meth:`totals` for the spans recorded after it."""
        return len(self.spans)

    def totals(self, since: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed seconds and call count since ``since``."""
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, t0, t1, _ in self.spans[since:]:
            secs[name] += t1 - t0
            calls[name] += 1
        return secs, calls

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows, times relative to the first span."""
        if not self.spans:
            return []
        base = self.spans[0][1]
        return [[n, round(t0 - base, 9), round(t1 - base, 9), p]
                for n, t0, t1, p in self.spans]


class LayerSamples:
    """Per-sample span totals in reference seconds, reduced to medians per name.

    A name missing from a sample counts as 0 in it; a name never seen, as 0.
    """

    def __init__(self):
        self.secs: dict[str, list[float]] = {}
        self.samples = 0

    def add(self, secs: dict[str, float], factor: float) -> dict[str, float]:
        """Record one sample's wall-second totals scaled by the pace ``factor``;
        returns the scaled totals."""
        scaled = defaultdict(float, {k: v * factor for k, v in secs.items()})
        for name in set(self.secs) | set(scaled):
            self.secs.setdefault(name, [0.0] * self.samples).append(scaled[name])
        self.samples += 1
        return scaled

    def median(self, name: str) -> float:
        return statistics.median(self.secs.get(name) or [0.0])
