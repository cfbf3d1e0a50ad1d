"""Seconds at a fixed reference speed.

The benchmark's host runs the same Python code up to twice as slowly for
stretches of several to tens of seconds (a fixed Fraction loop measured
between 51 and 109 ms within one minute on the 2-core VM the baseline was
taken on).  Medians within a run cannot remove a slowdown that lasts the
whole run, so every benchmark time is converted to reference seconds:

    reference seconds = (measured seconds - sampler time) * REF_LOOP_S / loop time

A SIGALRM sampler, which runs in the main thread between bytecodes and
starts no thread, times a fixed pure-Python loop every PERIOD_S seconds.
Loop times are smoothed by a rolling median over SMOOTH samples, which
keeps slowdowns that last a second or more and drops one-sample spikes;
the speed over an interval is the mean of the smoothed speeds sampled in
it or within MARGIN_S of it, so that a short interval gets an estimate
from a few dozen samples.
The loop uses only the standard library, so no change to tropico can
change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
SMOOTH = 11
MARGIN_S = 0.05  # speed samples this close to an interval count for it too
# the loop's time on the baseline machine when it runs at full speed
REF_LOOP_S = 0.00025


def reference_loop():
    """Fixed interpreter work: rational arithmetic, tuples, dict updates, a sort."""
    acc, seen = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 13, i % 5)
        seen[key] = seen.get(key, 0) + 1
    return acc, sorted(seen.items())


class RefClock:
    """Samples the reference loop while running; converts intervals after."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._finish()
        return False

    def _finish(self):
        loops = [e - s for s, e in zip(self.starts, self.ends)]
        half = SMOOTH // 2
        self._speed = [
            REF_LOOP_S / statistics.median(loops[max(0, i - half): i + half + 1])
            for i in range(len(loops))
        ]
        self._busy = [0.0]
        for loop in loops:
            self._busy.append(self._busy[-1] + loop)

    def ref_seconds(self, a, b):
        """Reference seconds of the measured interval [a, b] (perf_counter)."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b)
        busy = self._busy[j] - self._busy[i] if j > i else 0.0
        lo = bisect.bisect_left(self.starts, a - MARGIN_S)
        hi = bisect.bisect_right(self.ends, b + MARGIN_S)
        # no sample that close (the handler waited on a long C call): the
        # nearest sample on each side
        lo, hi = min(lo, max(0, hi - 1)), max(hi, min(len(self._speed), lo + 1))
        if hi <= lo:
            raise RuntimeError("no reference-loop samples taken")
        return (b - a - busy) * statistics.fmean(self._speed[lo:hi])

    def loop_ms(self):
        """Median loop time in ms: the host's speed during the run."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) * 1e3
