"""Wall time corrected for the speed swings of a shared host.

On a shared virtual machine the same Python code can run a third slower for
tens of seconds at a time, which moves every wall-time figure between runs by
more than any bound worth setting.  A ``Clock`` therefore also measures the
host's speed while it times a call: a short fixed loop of standard-library
arithmetic (``calibrate``) runs just before and just after the call and, from
a SIGALRM handler, every SAMPLE_INTERVAL_S during it.  The call's wall time,
less the time spent in the handler, is scaled by CALIBRATION_REF_S over the
mean time of the loops run within WINDOW_S of the call.  The loop never calls
the program, so no program change moves the correction; on a quiet host the
reference time equals the wall time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERF = time.perf_counter
# Median time of calibrate() on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7).  It only fixes the unit of the reported times.
CALIBRATION_REF_S = 0.00167
SAMPLE_INTERVAL_S = 0.25
WINDOW_S = 1.0  # the host speed is taken as steady over a call and this margin
_POLY = [3 ** k + 7 for k in range(24)]


def calibrate() -> float:
    """Wall time of a fixed loop of Fraction sums and big-integer products."""
    t0 = PERF()
    total = Fraction(0)
    for k in range(1, 500):
        total += Fraction((-1) ** k, k)
    out = [0] * (2 * len(_POLY) - 1)
    for i, a in enumerate(_POLY):
        for j, b in enumerate(_POLY):
            out[i + j] += a * b
    return PERF() - t0


class Timing:
    """One timed call.  ``ref`` is read once the clock has sampled past the call."""

    __slots__ = ("clock", "start", "end", "wall")

    def __init__(self, clock: "Clock", start: float, end: float, wall: float):
        self.clock = clock
        self.start = start
        self.end = end
        self.wall = wall

    @property
    def ref(self) -> float:
        """Wall seconds scaled by the host speed sampled within WINDOW_S of the call."""
        speeds = [c for t, c in self.clock.samples
                  if self.start - WINDOW_S <= t <= self.end + WINDOW_S]
        return self.wall * CALIBRATION_REF_S * len(speeds) / sum(speeds)


class Clock:
    """Times consecutive calls and samples the host speed around and during them."""

    def __init__(self):
        self.samples = []  # (start time, calibrate() seconds)
        self._paused = 0.0
        self._t0 = 0.0
        self._previous_handler = None

    def _take(self) -> float:
        t0 = PERF()
        self.samples.append((t0, calibrate()))
        return PERF() - t0

    def _sample(self, _signum, _frame):
        self._paused += self._take()

    def start(self):
        self._take()
        self._paused = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = PERF()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> Timing:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = PERF()
        signal.signal(signal.SIGALRM, self._previous_handler)
        timing = Timing(self, self._t0, end, end - self._t0 - self._paused)
        self._take()
        return timing
