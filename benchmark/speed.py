"""Machine-speed samples for scaling times to a reference speed.

Other tenants of a shared host slow a process by up to about 1.6x, for
anything from a fraction of a second to minutes, and CPU time slows as much
as wall-clock time. A short fixed kernel, unrelated to the package, slows
with it. `Speedometer` times that kernel every PERIOD_S seconds from a
SIGALRM handler, which runs in the main thread between bytecodes, so no
thread is added. A command's time at reference speed is its time with the
handler's own time taken out, times run.KERNEL_REF_S over the kernel time
sampled while it ran.
"""

from __future__ import annotations

import signal
import time

import numpy as np


class Speedometer:
    PERIOD_S = 0.25

    def __init__(self):
        # 80 KB of data, so the kernel's own cache misses stay small next to
        # its run time whatever the package did just before.
        self._data = np.random.default_rng(0).random((100, 100))
        self.starts: list[float] = []
        self.ends: list[float] = []

    def kernel_s(self) -> float:
        """One timed run of the kernel: boolean masks and sums over columns,
        and a Python dict loop, the two kinds of work the package does."""
        data, total = self._data, 0.0
        t0 = time.perf_counter()
        for i in range(240):
            col = data[:, i % 100]
            total += float(np.sum(col[col > 0.5]))
            total += len({j: j * j for j in range(30)})
        return time.perf_counter() - t0

    def settled_kernel_s(self, runs: int = 5) -> float:
        """Median of a few runs, for a moment outside any timed command."""
        return sorted(self.kernel_s() for _ in range(runs))[runs // 2]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel_s()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, kernel seconds) for the interval [start, end).

        Seconds exclude the handler's own time. The kernel time is the
        harmonic mean of the samples taken inside the interval, so that
        scaling the interval as a whole equals scaling each slice between
        samples by its own sample. An interval too short to hold a sample
        gets one taken now.
        """
        inside = [i for i, s in enumerate(self.starts) if start <= s < end]
        paused = sum(self.ends[i] - self.starts[i] for i in inside)
        samples = [self.ends[i] - self.starts[i] for i in inside]
        if not samples:
            samples = [self.kernel_s()]
        kernel = len(samples) / sum(1.0 / k for k in samples)
        return end - start - paused, kernel
