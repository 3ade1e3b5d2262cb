"""Machine-speed ticks that scale bench/run.py's timings to a reference speed.

On a shared host, neighbours slow every instruction of this process by up to
2x, in episodes that switch on and off many times a second (README.md).  A
timer signal interrupts the run every PERIOD_S and runs a fixed kernel in the
handler: a short first pass pulls its data back into cache, and a pass
TIMED_REPEATS times as long is timed.  An interval's scaled time is its own
time, less the handler time inside it, times REF_S over the mean timed pass
of the ticks that fell within PAD_S of it.

The kernel mixes the three kinds of work the subcommands do, in about equal
parts: an FFT round trip on 4096 points, sparse-LU solves on 1024 unknowns,
and interpreted Python.  It calls numpy and scipy only, never the package.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg

PERIOD_S = 0.05
PAD_S = 0.1
TIMED_REPEATS = 3
# Timed pass of the kernel on the reference machine: about its time on the
# tuning VM outside slow episodes, where it took 0.95-1.0 ms (1.4-1.5 ms in
# them).
REF_S = 1e-3


class SpeedTicks:
    """Use as a context manager around the timed part of a run."""

    def __init__(self) -> None:
        x = np.linspace(-1.0, 1.0, 4096)
        self.psi = np.exp(-50.0 * x**2 + 20j * x)
        self.kick = np.exp(-0.01j * x**2)
        n = 1024
        h = scipy.sparse.diags([np.full(n - 1, -0.5), np.full(n, 1.0), np.full(n - 1, -0.5)],
                               [-1, 0, 1])
        self.solve = scipy.sparse.linalg.splu(
            (scipy.sparse.identity(n) + 0.01j * h).tocsc()).solve
        self.starts: list[float] = []  # handler entry times, increasing
        self.spent: list[float] = []  # whole handler time of each tick
        self.timed: list[float] = []  # timed kernel pass of each tick
        self._previous = None
        self.kernel()  # first calls set up FFT plans and caches

    def kernel(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            scipy.fft.ifft(self.kick * scipy.fft.fft(self.psi))
        rhs = self.psi[:1024]
        for _ in range(3 * repeats):
            rhs = self.solve(rhs)
        total = 0
        for i in range(1500 * repeats):
            total += i * i % 7

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        mid = time.perf_counter()
        self.kernel(TIMED_REPEATS)
        end = time.perf_counter()
        self.starts.append(start)
        self.spent.append(end - start)
        self.timed.append(end - mid)

    def __enter__(self) -> "SpeedTicks":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_time(self, start: float, end: float) -> float:
        """Seconds in [start, end) not spent in tick handlers."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - sum(self.spent[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean timed pass of the ticks near [start, end)."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_left(self.starts, end + PAD_S)
        lo = min(lo, hi - 1)  # no tick nearby: take the last one before
        return REF_S / statistics.fmean(self.timed[lo:hi])
