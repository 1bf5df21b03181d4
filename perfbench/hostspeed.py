"""Host speed, measured by a fixed reference kernel sampled on a timer.

The benchmark shares a few cores of a host with other tenants, and the
host's speed moves under it: the same job takes up to 1.6x as long from one
second to the next, and the share of slow seconds drifts over minutes, so
two 30-s runs of the same jobs can differ by 25 % in every timing.  CPU time
moves with wall time, so it does not help.

While a :class:`Speedometer` is active, a wall-clock interval timer
interrupts the process every ``period_s`` and the signal handler times one
call of :func:`reference_kernel`: pure-Python work that does not import
``gregory`` (integer Stirling rows and float ``exp``/``sinh`` loops, the
operations the workloads spend their time in).  Samples land inside jobs as
well as between them, so they follow the host's speed through each job.

:meth:`Speedometer.scaled` turns the wall time of an interval into the time
it would have taken at the kernel's nominal speed: it takes out the handler
time spent inside the interval, then multiplies by
``REFERENCE_NOMINAL_S`` over the mean kernel time of the samples in and
around the interval, leaving out the rare samples a stall of the whole
process hit.  The job and the kernel slow down together, so scaled
times hold still while the host's speed moves; they still move with every
change to ``gregory``, which the kernel does not run.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

# About the kernel's mean time inside the handler on the 2-core Xeon host,
# Python 3.11.7, the benchmark was tuned on (30-s runs read 105-145 us);
# scaled times read as wall times on that host at that speed.
REFERENCE_NOMINAL_S = 120e-6
MIN_SAMPLES = 5         # an interval's speed is the mean of at least this many
STALL_FACTOR = 3.0      # samples this many times the median are stalls, not speed


def reference_kernel() -> float:
    """Fixed work of the kinds the workloads do, about 0.1 ms; returns a checksum."""
    row = [1]
    for n in range(1, 18):          # s(n, k) of the first kind, big integers
        row = [0] + [row[k - 1] - (n - 1) * (row[k] if k < n else 0)
                     for k in range(1, n + 1)]
    acc = float(row[12] % 1000003)
    for i in range(1, 300):         # tanh-sinh-like float work
        t = i * 1e-3
        acc += math.exp(-math.sinh(t)) * math.cosh(t)
    return acc


class Speedometer:
    """Reference-kernel samples taken every ``period_s`` of wall time.

    Use as a context manager around the timed phase; samples are
    (start, duration) pairs on the ``time.perf_counter`` clock.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._typical: tuple[list[float], list[float]] = ([], [])

    @classmethod
    def from_samples(cls, period_s: float, starts: list[float],
                     durations: list[float]) -> "Speedometer":
        speed = cls(period_s)
        speed.starts, speed.durations = list(starts), list(durations)
        speed._set_typical()
        return speed

    def _set_typical(self) -> None:
        """Set aside the samples that a stall of the whole process hit.

        About one sample in 200 reads 3-4 ms instead of 0.1-0.2 ms: the
        process lost its core for a scheduler tick.  A job in that tick lost
        the same few ms, not 30 times its own length, so such samples say
        nothing about the speed around them.  They still count as handler
        time in stolen().
        """
        limit = STALL_FACTOR * statistics.median(self.durations)
        kept = [(t, d) for t, d in zip(self.starts, self.durations) if d <= limit]
        self._typical = ([t for t, _ in kept], [d for _, d in kept])

    def _sample(self, signum, frame) -> None:
        # the cyclic collector is held off, so that the size of the heap the
        # jobs built does not enter the kernel's time
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._set_typical()

    @staticmethod
    def _between(starts: list[float], start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)

    def stolen(self, start: float, end: float) -> float:
        """Handler time spent between start and end."""
        lo, hi = self._between(self.starts, start, end)
        return math.fsum(self.durations[lo:hi])

    def local_reference_s(self, start: float, end: float) -> float:
        """Mean kernel time of the typical samples in [start, end], widened
        on both sides by whole periods until it holds MIN_SAMPLES of them."""
        starts, durations = self._typical
        halo = 0.0
        while True:
            lo, hi = self._between(starts, start - halo, end + halo)
            if hi - lo >= min(MIN_SAMPLES, len(starts)):
                return statistics.fmean(durations[lo:hi])
            halo += self.period_s

    def mean_reference_s(self) -> float:
        return statistics.fmean(self._typical[1])

    def stalls(self) -> int:
        return len(self.durations) - len(self._typical[1])

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the handler, at nominal speed."""
        own = (end - start) - self.stolen(start, end)
        return own * REFERENCE_NOMINAL_S / self.local_reference_s(start, end)
