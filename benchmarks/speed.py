"""Host-speed reference: a fixed kernel timed between operations.

The shared host this benchmark runs on changes speed by a third or more
over seconds to minutes, and every op of a run slows alike, so raw wall
times of the same code spread by more than any useful regression bound.
The worker therefore times ``kernel`` (benchmark code only, never the
package) every PROBE_EVERY seconds of wall time, outside the timed
interval, and the reported timings are scaled to a host on which the
kernel takes REF_S: each measured time is multiplied by REF_S over the
median of the NEAREST kernel times around it.  A change to the package
moves the scaled times exactly as it moves the raw ones; a slower or
faster host moves them much less.

The kernel mixes the two kinds of work the package does: a loop of
small-integer arithmetic, and tuple products of 2x2 integer matrices
stored in a set plus a sparse dict convolution.  On a sample of
20- and 30-second windows on the development host, this mix cut the
spread of fixed package ops from 0.20-0.27 to 0.03-0.09 of the median.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from time import perf_counter

#: Kernel time of the reference host, in seconds.
REF_S = 0.011
#: Wall seconds between kernel probes.
PROBE_EVERY = 0.5
#: Probes around a measured time whose median scales it.
NEAREST = 5

_STEPS = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 1, 1))
_POLY = {k: (k * 7919) % 13 - 6 for k in range(0, 300, 2)}


def kernel() -> int:
    total = 0
    for k in range(60_000):
        total += k * k % 7
    seen = set()
    frontier = [(1, 0, 0, 1)]
    for _ in range(7):
        grown = []
        for a, b, c, d in frontier:
            for e, f, g, h in _STEPS:
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                if m not in seen:
                    seen.add(m)
                    grown.append(m)
        frontier = grown
    product: dict[int, int] = {}
    for i, x in _POLY.items():
        for j, y in _POLY.items():
            product[i + j] = product.get(i + j, 0) + x * y
    return total + len(seen) + len(product)


def probe() -> tuple[float, float]:
    """(midpoint, duration) of one kernel run, with the collector paused
    so that the package's heap does not bill the kernel.  An untimed run
    first warms the caches, so the probe reads the same after an op as
    after waiting on a child process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = perf_counter()
        kernel()
        duration = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return start + duration / 2, duration


class Probes:
    """Kernel probes taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.last = float("-inf")

    def take(self) -> None:
        self.samples.append(probe())
        self.last = perf_counter()

    def maybe(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY:
            self.take()

    def factors(self, midpoints: list[float]) -> list[float]:
        """REF_S over the median of the NEAREST probes around each midpoint."""
        times = [t for t, _ in self.samples]
        k = min(NEAREST, len(times))
        out = []
        for mid in midpoints:
            lo = min(max(bisect_left(times, mid) - k // 2, 0), len(times) - k)
            out.append(REF_S / statistics.median(d for _, d in self.samples[lo:lo + k]))
        return out

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
