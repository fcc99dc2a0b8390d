"""Summary statistics for per-operation timings, and the reference time
they are reported in."""

from __future__ import annotations

import math
import statistics
import time

TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(math.ceil(q * n), 1)


def tail_reportable(n: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(n, q) >= TAIL_SAMPLES


def median(values) -> float:
    return statistics.median(values)


# The host this benchmark was defined on changed speed by up to 2x within
# minutes, for all code alike.  Timings are therefore reported in reference
# time: wall time scaled by how long a fixed piece of pure-Python work takes
# right now against how long it took there.
REFERENCE_SECONDS = 2.25e-3  # reference_work() on an Intel Xeon VM, Python 3.11


def reference_work():
    """Fixed work in the style of the program's exact arithmetic: small
    rational objects, method calls, string keys and a dict.  Imports nothing,
    so a fresh interpreter can run it before importing kleintrace."""

    class Ratio:
        __slots__ = ("n", "d")

        def __init__(self, n, d):
            x, y = n, d
            while y:
                x, y = y, x % y
            self.n, self.d = n // x, d // x

        def __add__(self, other):
            return Ratio(self.n * other.d + other.n * self.d, self.d * other.d)

        def __mul__(self, other):
            return Ratio(self.n * other.n, self.d * other.d)

    acc = Ratio(0, 1)
    seen = {}
    for i in range(1, 500):
        acc = acc + Ratio(i % 97 + 1, 3) * Ratio(1, i % 7 + 1)
        key = f"{acc.n % 1000}/{acc.d}"
        seen[key] = seen.get(key, 0) + 1
    return acc.n, len(seen)


def host_scale() -> float:
    """Reference seconds per wall second at this moment."""
    start = time.perf_counter()
    reference_work()
    return REFERENCE_SECONDS / (time.perf_counter() - start)
