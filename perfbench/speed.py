"""The machine's speed while the benchmark runs, for scaling its timings.

The benchmark's timings are reported at a fixed reference speed: each time
is multiplied by REFERENCE_S over the mean time of a small fixed loop sampled
while it was measured.  On a shared machine the same pass can take half as
long again from one minute to the next; the samples see the same slowdown
and cancel it.  The loop is pure Python like most of qsift's work and calls
no qsift code, so a change to qsift cannot move it.  Measured seconds are
reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# The loop's time on an unloaded core of the machine that defined the
# benchmark (a 2-core KVM guest on an Intel Xeon, CPython 3.11.7).
REFERENCE_S = 0.0006
INTERVAL_S = 0.05


def reference_loop() -> None:
    """A fixed sparse-division loop, shaped like the generators' inner loops."""
    out = [1] * 1024
    for i in range(1, 1024):
        v = out[i]
        for e in (1, 2, 5, 7, 12, 15, 22, 26, 35, 40):
            if e > i:
                break
            v -= out[i - e]
        out[i] = v % 7


def sample() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Sampler:
    """Times the reference loop every INTERVAL_S seconds of wall time, from a
    SIGALRM handler, while the timed code runs.  ``busy`` is the total time
    spent in the handler; :meth:`clock` leaves it out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` without the handler's time."""
        return time.perf_counter() - self.busy

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.busy += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured during ``samples`` to the
    reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
