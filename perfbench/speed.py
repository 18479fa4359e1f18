"""Machine-speed sampling, for timing on a host whose CPU speed drifts.

On the 2-core virtual machine the benchmark was written on, a fixed
pure-Python loop runs up to 40% slower for tens of seconds at a time while
other tenants of the host are busy, so raw wall times spread by about 20%
from run to run, and probes 40 ms apart have a correlation of 0.84.  A ``Sampler``
runs a small probe kernel every ``INTERVAL_S`` (on SIGALRM, so it samples
the CPU the pass is running on, during its operations) and gives each
operation a factor: ``NOMINAL_S`` over the mean probe time during it.  A
time multiplied by its factor reads as the time at nominal speed.  The
probes cost under 1% of a pass, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median probe kernel time on an idle core of that machine (2.1 GHz, Python 3.11).
NOMINAL_S = 0.0004
INTERVAL_S = 0.05


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(3000):
        total += i * i % 7
        table[i & 63] = total
    return total


class Sampler:
    """Context manager sampling the probe kernel's speed while its block runs."""

    def __init__(self):
        self.samples: list = []  # (midpoint, duration) of each probe
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def __enter__(self) -> Sampler:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def factors(self, windows: list) -> list:
        """Per (start, end) window: ``NOMINAL_S`` over the mean probe time within
        it, or over the nearest probe's when none fell inside."""
        out = []
        for t0, t1 in windows:
            inside = [d for t, d in self.samples if t0 <= t <= t1]
            if not inside:
                mid = (t0 + t1) / 2
                inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
            out.append(NOMINAL_S / statistics.mean(inside))
        return out
