"""A clock that counts seconds at a fixed reference speed of the core.

On a shared host the speed of one core changes with the load that other
tenants put on it: by up to 1.9x, switching every second or so, and
independently on each core. Wall times of the same code then spread by
30 % between runs, past any useful bound. ``SpeedClock`` corrects for
that. Every ``INTERVAL_S`` of wall time a SIGALRM handler, in the
benchmarked process itself, times a fixed kernel of small numpy calls
(the kind of work pdnet's steps are made of). The wall time since the
previous sample is scaled by ``KERNEL_REFERENCE_S / kernel time``, so a
second spent at half speed counts as half a second. The kernel's own time
is left out. The clock then reads in seconds of an unloaded core of the
baseline machine, and it advances with the work done, not with the load
of the machine.

Python runs the handler between bytecodes, so a single C call (a large
matrix product, an eigen-decomposition) is scaled by the first sample
after it. The kernel touches only its own 30 KB of arrays; it costs 1 to
2 % of the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between two samples of the core's speed
INTERVAL_S = 0.03
#: median kernel time on an unloaded core of the baseline machine
#: (2-core shared host, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, 1 thread)
KERNEL_REFERENCE_S = 2.0e-4


class SpeedClock:
    """Call it for the time in reference seconds; ``start`` before use."""

    def __init__(self, interval: float = INTERVAL_S):
        rng = np.random.default_rng(0)
        self._a = rng.random((60, 60))
        self._b = rng.random((60, 6))
        self._interval = interval
        self._raw = time.perf_counter
        for _ in range(20):  # warm caches and numpy's dispatch
            self._kernel()
        self._last = statistics.median(self._kernel() for _ in range(9))
        self._reference = 0.0
        self._mark = self._raw()
        self._busy = False
        self._previous = None
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        """Time of the kernel, run once untimed first: its first pass after
        other work runs on cold caches and would read the caches' state."""
        for timed in (False, True):
            start = self._raw()
            for _ in range(25 if timed else 10):
                np.clip(self._a @ self._b, 0.1, 0.5).sum()
        return self._raw() - start

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while sampling is dropped
            return
        self._busy = True
        start = self._raw()
        took = self._kernel()
        self._reference += (start - self._mark) * KERNEL_REFERENCE_S / took
        self._last = took
        self.kernel_s.append(took)
        self._mark = self._raw()
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __call__(self) -> float:
        return (self._reference
                + (self._raw() - self._mark) * KERNEL_REFERENCE_S / self._last)

    def slowdown(self) -> float:
        """Median kernel time over the reference: 1 on an unloaded core."""
        if not self.kernel_s:
            return self._last / KERNEL_REFERENCE_S
        return statistics.median(self.kernel_s) / KERNEL_REFERENCE_S
