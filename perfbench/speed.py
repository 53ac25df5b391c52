"""Machine-speed normalisation for timings taken on a shared host.

On a shared host the same Python code runs up to 30% faster or slower
from one second to the next, and the change comes and goes within a
single multi-second verdict.  :class:`SpeedSampler` measures how long a
fixed slice of Fraction-heavy Python (the probe, like the library's own
arithmetic) takes, every ``interval_s`` of wall time, from a SIGALRM
handler in the one benchmark thread.  :meth:`SpeedSampler.normalise`
turns an interval of wall time into the time the same work would take at
the reference speed, where the probe takes ``PROBE_REF_NS``:

    normalised = (wall time - probe time inside it) * mean(PROBE_REF_NS / probe)

over the probes taken inside the interval and the one on each side.
A change to ``rectilt`` moves the work, not the probe, so it shows in
full.  Sampling every 10 ms brings the spread of one ~200 ms verdict's
normalised time down to about 5%, from 15% raw.  The probe takes about
5% of wall time, and that time is removed again from every normalised
interval.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# the probe's median on a 2-vCPU x86-64 host with CPython 3.11
PROBE_REF_NS = 550_000


def probe_body() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(2, 3)
    return acc


class SpeedSampler:
    """Probe the interpreter's speed on a wall-clock timer while active."""

    def __init__(self, interval_s: float = 0.01):
        self.interval_s = interval_s
        self.stamps: list[int] = []     # probe start times, perf_counter_ns
        self.costs: list[int] = []      # probe durations, ns
        self._previous = None

    def _tick(self, signum, frame):
        begin = time.perf_counter_ns()
        probe_body()
        self.costs.append(time.perf_counter_ns() - begin)
        self.stamps.append(begin)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, begin_ns: int, end_ns: int) -> float:
        """Reference-speed nanoseconds of the work done in [begin_ns, end_ns)."""
        i = bisect.bisect_left(self.stamps, begin_ns)
        j = bisect.bisect_left(self.stamps, end_ns)
        work = (end_ns - begin_ns) - sum(self.costs[i:j])
        window = self.costs[max(0, i - 1): j + 1]
        if not window:                  # no probe yet: take one now
            begin = time.perf_counter_ns()
            probe_body()
            window = [time.perf_counter_ns() - begin]
        return work * sum(PROBE_REF_NS / c for c in window) / len(window)
