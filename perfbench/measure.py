"""Timing, sampling and output-check helpers shared by the workloads."""
from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


REFERENCE_ITERATIONS = 75_000
REFERENCE_S = 0.020  # the reference loop's time on the reference machine, by definition


def _reference_loop() -> int:
    # interpreter-bound like quantir itself: tuples, a dict, a growing list
    table = {}
    out = []
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) % 1021
        item = (key, i & 15, float(i))
        table[key] = item
        out.append(item[0] + len(table))
    return len(out)


def settle() -> None:
    """Collect garbage before a timed section, so each starts from a similar heap."""
    gc.collect()


def _reference_seconds() -> float:
    # the collector stays off, so the objects a sample leaves alive cannot
    # charge a collection to the machine's pace
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def wall(fn, *args):
    """``(wall seconds, result)`` of one call, after :func:`settle`."""
    settle()
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Pace:
    """Machine speed, measured by a fixed reference loop around each sample.

    A shared machine changes speed by tens of percent over seconds and
    minutes, and a whole run can fall in a slow or a fast phase.  Every time
    is therefore reported in reference seconds: wall seconds times
    ``REFERENCE_S`` over the mean of the reference loop's times just before
    and just after the sample.  A change to quantir leaves the loop alone, so
    it moves reference seconds as it moves wall seconds.
    """

    def __init__(self):
        self.factors: list[float] = []
        self._before = REFERENCE_S

    def start(self) -> None:
        """Collect garbage, then time the reference loop before a sample."""
        settle()
        self._before = _reference_seconds()

    def stop(self) -> float:
        """Time the reference loop after the sample; returns the sample's factor."""
        factor = 2 * REFERENCE_S / (self._before + _reference_seconds())
        self.factors.append(factor)
        return factor

    def timed(self, fn, *args):
        """``(reference seconds, result)`` of one call as its own sample."""
        self.start()
        t0 = time.perf_counter()
        out = fn(*args)
        t = time.perf_counter() - t0
        return t * self.stop(), out


def consume(circuits) -> None:
    """Iterate every instruction of every body, as a caller of decode would."""
    for c in circuits:
        deque(c.body, maxlen=0)


def cycle(items, seconds: float, min_passes: int = 1):
    """Yield ``(pass, index, item)`` over ``items`` repeatedly.

    The first ``min_passes`` passes always complete, so counts taken on
    pass 0 do not depend on machine speed; after that, iteration stops as
    soon as ``seconds`` have elapsed.
    """
    items = list(items)
    start = time.perf_counter()
    p = 0
    while True:
        for i, item in enumerate(items):
            if p >= min_passes and time.perf_counter() - start >= seconds:
                return
            yield p, i, item
        p += 1


def median(xs) -> float:
    """Median of ``xs``; 0 when nothing was measured because every operation failed."""
    return statistics.median(xs) if xs else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``; 0 when nothing was counted because every operation failed."""
    return num / den if den else 0.0


def tail(xs) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest sample with at least
    :data:`TAIL_BEYOND` samples above it.  With too few samples, the maximum
    (percentile 100); with none, 0."""
    s = sorted(xs)
    n = len(s)
    if not n:
        return 0.0, 0.0, 0
    k = n - 1 - TAIL_BEYOND
    if k < 0:
        return s[-1], 100.0, n
    return s[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Output checks, counted rather than raised: error_rate = failed / attempted."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        """Count one checked operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)

    @contextmanager
    def operation(self, what: str):
        """Count one operation; it fails if it raises or if the block appends
        a problem (a string; None entries are passing checks) to the list."""
        problems: list[str | None] = []
        try:
            yield problems
        except Exception as e:  # a failing operation is a finding, not a crash
            problems.append(f"{what}: {type(e).__name__}: {e}")
        found = [p for p in problems if p]
        self.record("; ".join(found) if found else None)


@dataclass
class Result:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit)``; ``report`` holds
    human-readable lines; ``record`` holds what the traced run writes to its
    trace file (counts, digests, spans).
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.line(name, value, unit, note)

    def line(self, name: str, value, unit: str, note: str = "") -> None:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.report.append(f"  {name:<34} {shown:>14} {unit:<7} {note}".rstrip())


def input_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-circuit generator seeds, fixed by the workload name and ``--seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2 ** 63) for _ in range(count)]
