"""Calibration kernel: the machine's speed around and during timed work.

The machine the benchmark was built on (2 vCPUs at 2.1 GHz, shared with
other tenants) runs the same code anywhere from 1x to 1.7x slower from one
second to the next. A fixed interpreter loop, timed before, during and after
a piece of work, says how fast the machine ran meanwhile; run.py reports
times scaled by REF_S / median(kernel times). Stdlib only, so that the
set-up probe can use it before numpy is imported.
"""

import signal
from time import perf_counter

# typical kernel time on the machine the benchmark was built on (Python
# 3.11); reported times are at that speed
REF_S = 1e-4
# kernel runs right before and right after the work
PROBES = 5


def kernel() -> float:
    """Seconds for a fixed interpreter loop (about 0.1 ms)."""
    start = perf_counter()
    total = 0.0
    for i in range(1500):
        total += i * 0.5
    return perf_counter() - start


class Sampler:
    """Kernel times around one piece of work and, if interval_s is set,
    during it: a SIGALRM handler runs between bytecodes every interval_s,
    and its own time is taken off the work's."""

    def __init__(self, interval_s=None):
        self.interval_s = interval_s
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples = [kernel() for _ in range(PROBES)]
        self.spent = 0.0
        if self.interval_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)

    def stop(self, started: float) -> float:
        """Seconds since `started`, less the kernel runs inside them."""
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        seconds = perf_counter() - started - self.spent
        self.samples += [kernel() for _ in range(PROBES)]
        return seconds
