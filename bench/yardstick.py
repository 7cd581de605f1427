"""The machine's speed, sampled while the benchmark times the program.

The machine this benchmark was built on runs identical work anywhere from
1x to 2x slower from one second to the next, and from one hour to the
next, while process CPU time still follows wall time.  No statistic of
raw op times over a 30 s run is steady on it.  So a fixed pure-Python
kernel, owned by the benchmark and independent of the program, is timed
every INTERVAL_S seconds from a SIGALRM handler, in the middle of the
program's own calls.  An interval of the program's time is then reported
in reference seconds: its wall time, less the handler's, times the mean
of REF_S over each kernel time sampled inside it.  The samples are evenly
spaced in wall time, so that mean is the interval's average speed against
the reference.  A reference second is a second on a machine that runs the
kernel in REF_S.

    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    sampler.stop()
    ref_s = sampler.reference_seconds(t0, t1)

Only this module's handler may use SIGALRM while a sampler runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

# Kernel time taken as the reference speed: about the kernel's median on a
# 2-vCPU Intel Xeon VM at 2.0 GHz with Python 3.11.
REF_S = 6e-4
# 20 ms between samples: the handler costs about 3 % of the time, and an
# op of 0.1 s holds about five samples.
INTERVAL_S = 0.02
KERNEL_STEPS = 120
# Samples stored before the stores grow: 11 minutes at INTERVAL_S.
CAPACITY = 1 << 15


def _field(y, m):
    return [y[1] * y[2] - m * y[0], -y[0] * y[2], 0.1 * y[0] * y[1]]


def kernel(steps=KERNEL_STEPS):
    """Fixed pure-Python float work: RK4 steps of a quadratic ODE in 3-D.

    Lists, comprehensions over zip and small function calls: the kind of
    interpreter work the program does most.  On the machine above it tracked
    the program's slow spells better than a bare float loop (the spread of
    identical passes fell from 0.07-0.11 to 0.05 on loops and simulate) and
    far better than random reads over a large list.
    """
    y = [0.3, -0.2, 0.5]
    h, m = 1e-3, 0.1
    for _ in range(steps):
        k1 = _field(y, m)
        k2 = _field([a + 0.5 * h * b for a, b in zip(y, k1)], m)
        k3 = _field([a + 0.5 * h * b for a, b in zip(y, k2)], m)
        k4 = _field([a + h * b for a, b in zip(y, k3)], m)
        y = [a + h / 6.0 * (b + 2.0 * (c + d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    return y


class Sampler:
    """Kernel times (start, seconds) sampled every INTERVAL_S while started.

    The samples go to stores of raw doubles made up front.  Kept as Python
    floats, one sample every 20 ms would be a long-lived object among the
    program's short-lived ones; it pins their memory, and peak RSS then
    varied by up to 2 MB from run to run.
    """

    def __init__(self):
        self._starts = array("d", bytes(8 * CAPACITY))
        self._seconds = array("d", bytes(8 * CAPACITY))
        self.count = 0
        self._previous = None

    @property
    def seconds(self):
        return self._seconds[: self.count]

    def record(self, start, seconds):
        n = self.count
        if n == len(self._starts):
            self._starts.extend(self._starts)
            self._seconds.extend(self._seconds)
        self._starts[n] = start
        self._seconds[n] = seconds
        self.count = n + 1

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.record(t, time.perf_counter() - t)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def reference_seconds(self, start, end):
        """The program's time in [start, end], in reference seconds.

        Samples that start inside the interval ran inside it; their time is
        taken off.  An interval too short to hold a sample uses the samples
        on either side of it.
        """
        lo = bisect.bisect_left(self._starts, start, 0, self.count)
        hi = bisect.bisect_left(self._starts, end, lo, self.count)
        inside = self._seconds[lo:hi]
        net = end - start - sum(inside)
        samples = inside or self._seconds[max(lo - 1, 0) : min(lo + 1, self.count)]
        if not samples:
            raise RuntimeError("no yardstick samples were taken")
        return net * statistics.fmean(REF_S / k for k in samples)
