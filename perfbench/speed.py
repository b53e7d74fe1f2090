"""How fast the core runs while the workload runs, sampled from inside the run.

On a shared host the speed of a core drifts by tens of percent within
seconds, far more than the changes this benchmark must resolve.  So a
`Speedometer` times a small fixed kernel every INTERVAL_S of wall time: a
SIGALRM handler runs it in the main thread, between two bytecodes of
whatever the package is doing.  The samples therefore come from the same
core and the same seconds the package ran in.  A timing is scaled by
(the kernel's typical time on the defining host) / (its typical time over
the timed window), after the kernel's own time inside the window is taken
out: it then reads as seconds on the host the benchmark was defined on.
The kernels never change, so a change to the package moves the scaled
timings as it moves the raw ones.

The workloads are sampled with MixedKernel: Python arithmetic and small
complex matrix products through numpy's BLAS.  In two 150-s trials of
`readout`, each half alone followed the round times better than the other
in one trial and worse in the other.  Scaled by the two together, groups of
10 rounds kept a spread between those of the halves in one trial (0.081
against 0.071 and 0.097) and below both in the other (0.047 against 0.051
and 0.061).  The import of the package is sampled with PythonKernel
alone, which needs no import, so that the set-up time still includes
numpy's.

The typical kernel time is the interquartile mean of the samples: the mean
of their middle half.  A plain mean is thrown off by the few samples that
were interrupted (up to 3 ms against a typical 55 us).
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.005


class PythonKernel:
    """Plain Python integer arithmetic."""

    typical_s = 5.5e-5  # on the defining host, 2-core x86-64, Python 3.11.7

    def __call__(self):
        x = 0
        for i in range(800):
            x += i * i


class MixedKernel:
    """Python integer arithmetic, then three products of a 12x12 complex
    matrix with itself."""

    typical_s = 5.5e-5  # on the defining host, numpy 2.4.6, BLAS at 1 thread

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).standard_normal((12, 12)) * (1.0 + 1.0j)

    def __call__(self):
        x = 0
        for i in range(400):
            x += i * i
        a = self.a
        for _ in range(3):
            a @ a


class Speedometer:
    """Kernel samples taken every INTERVAL_S while started."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.ends = []  # perf_counter() at the end of each sample, ascending
        self.times = []  # each sample's kernel time
        self._sums = [0.0]  # prefix sums of self.times

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self._sums.append(self._sums[-1] + t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Total kernel time spent between t0 and t1."""
        i, j = self._span(t0, t1)
        return self._sums[j] - self._sums[i]

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns seconds measured between t0 and t1 into seconds
        at the defining host's speed."""
        i, j = self._span(t0, t1)
        if j - i < 4:
            raise ValueError(f"{j - i} speed samples in the window; at least 4 needed")
        times = sorted(self.times[i:j])
        n = len(times)
        middle = times[n // 4 : n - n // 4]
        return self.kernel.typical_s * len(middle) / sum(middle)
