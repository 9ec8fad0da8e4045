"""Host speed, measured alongside every sample, and the scale to a fixed speed.

On the small shared machines this benchmark runs on, the speed of the whole
process swings by up to half within seconds, while steal time stays near
zero (see README.md). A fixed piece of pure-Python work slows down with the
program, so every reported time is scaled to the speed at which that work
takes its nominal time: ``reported = measured * nominal / reference``.

During timed steps a ``SpeedMeter`` runs the reference work from a SIGALRM
handler every ``INTERVAL_S`` of wall time. The handler's own time is taken
out of every sample it lands in, and the median of the probes within a step
gives that step's scale. The reference never touches bnmaint, so no change
to the program can move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_ITERATIONS = 300
# nominal time of one reference iteration: its time on the machine this was
# written on, at its fastest
ITERATION_S = 1.2e-6


def reference_work(iterations: int) -> float:
    """Tuple building, float sums and dict updates: the program's mix."""
    seen, total = {}, 0.0
    for i in range(iterations):
        row = tuple((i * 7 + j) % 13 / 13.0 for j in range(4))
        s = math.fsum(row)
        seen[i % 101] = (s, row)
        total += s
    return total


def reference_s(iterations: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work(iterations)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedMeter:
    """Probes host speed from a SIGALRM handler while active (a context
    manager). Only the main thread may use it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self._cum = [0.0]  # prefix sums of `times`
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work(PROBE_ITERATIONS)
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(d)
        self._cum.append(self._cum[-1] + d)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Time the probes took within [t0, t1): to subtract from a sample."""
        lo, hi = self._range(t0, t1)
        return self._cum[hi] - self._cum[lo]

    def scale(self, t0: float, t1: float) -> float:
        """Scale for samples taken within [t0, t1): the median probe there,
        or the latest five probes when fewer landed inside."""
        lo, hi = self._range(t0, t1)
        if hi - lo < 5:
            lo = max(0, hi - 5)
        probes = self.times[lo:hi] or [reference_s(PROBE_ITERATIONS, 5)]
        return ITERATION_S * PROBE_ITERATIONS / statistics.median(probes)
