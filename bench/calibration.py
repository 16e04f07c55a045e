"""Machine-speed calibration taken while a workload runs.

The host this benchmark was built on alternates, over seconds to minutes,
between periods in which the same code runs up to 1.7 times slower, and a
15 s run can sit entirely in one of them.  Raw operation times then spread
by 26-35 % across seeds, more than any usable regression bound.

So while the timed phase runs, a timer signal interrupts it every
``PERIOD_S`` and times one call of a fixed kernel that does the same kind of
work as the library (small Hermitian eigensolvers and the numpy calls
around them), in frozen benchmark code that no library change can touch.
Each operation time is divided by the median kernel time within
``HALF_WINDOW_S`` of the operation, which puts it in "cal" units: it moves
when the library gets faster or slower, and far less when the machine
does.  The raw times are still reported beside it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
HALF_WINDOW_S = 5.0


_M4 = np.array(
    [[2.0, 0.5 - 0.25j, 0.0, 0.1], [0.5 + 0.25j, 1.0, 0.3j, 0.0],
     [0.0, -0.3j, 0.5, 0.2], [0.1, 0.0, 0.2, 0.25]],
    dtype=complex,
)
_EYE4 = np.eye(4)


def kernel() -> float:
    """Fixed mix of library-like work: 4x4 Hermitian eigensolves and the
    elementwise checks around them, about 0.3 ms on the reference host.
    Of the kernels tried, this one followed the host's slow periods most
    closely for both point evaluations and the 64x64 pipelines."""
    total = 0.0
    for k in range(16):
        m = _M4 + k * _EYE4
        values, vectors = np.linalg.eigh(m)
        total += float(np.max(np.abs(m - m.conj().T)))
        total += float(values[-1]) + float(np.trace(vectors).real)
    return total


class Calibration:
    """Context manager: samples ``kernel`` on a timer while it is open."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter() at the end of each sample
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples.append(end - start)

    def __enter__(self):
        kernel()  # first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median_s(self) -> float:
        """Median kernel time; NaN with no sample (a phase under PERIOD_S)."""
        return statistics.median(self.samples) if self.samples else math.nan

    def normalise(self, seconds: list[float], ends: list[float]) -> list[float]:
        """Each operation time over the median kernel time from
        ``HALF_WINDOW_S`` before the operation started to as long after it
        ended (over the run's median when that window holds no sample)."""
        whole = self.median_s()
        out = []
        for duration, end in zip(seconds, ends, strict=True):
            lo = bisect.bisect_left(self.stamps, end - duration - HALF_WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + HALF_WINDOW_S)
            window = self.samples[lo:hi]
            out.append(duration / (statistics.median(window) if window else whole))
        return out
