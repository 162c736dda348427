"""Machine-speed calibration for timings taken on a shared host.

On a shared 2-core host the same pass runs up to 1.8x slower when
neighbours are busy, and the machine switches between fast and slow
states every few seconds, so neither a median over passes nor a
calibration taken between passes removes it.  ``Sampler`` measures the
machine while a pass runs: an interval timer interrupts the pass every
10 ms to time a fixed loop of interpreter work (about 0.1 ms).  The pass
time, less the time spent sampling, scaled by ``REF_S / mean loop time``,
is its time on a machine where the loop takes ``REF_S``.  The loop does
not depend on the package, so a change to the package shows in full.

``SpeedLog`` does the same for sections that run in child processes,
which cannot be interrupted from here: it times a longer loop between
them.
"""

from __future__ import annotations

import signal
import statistics
import time

# typical loop times on the 2-core x86_64 host (Python 3.11) where the
# benchmark was defined; only ratios to them matter
REF_S = 85e-6
LOG_REF_S = 8.7e-3
INTERVAL_S = 0.010


def _loop(n: int) -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(n):
        s += i * 0.5
    return time.perf_counter() - t0


class Sampler:
    """Times the block it guards and samples machine speed while it runs.

    Uses SIGALRM, so it must run in the main thread.
    """

    def __init__(self):
        self.loops = []
        self.spent = 0.0
        self.elapsed_s = None  # the block's wall time, sampling included
        self.wall_s = None  # the block's wall time, sampling excluded

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.loops.append(_loop(1000))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.elapsed_s = t1 - self._t0
        self.wall_s = self.elapsed_s - self.spent
        if not self.loops:  # a block shorter than one interval
            self.loops.append(_loop(1000))
        return False

    @property
    def scaled_s(self) -> float:
        """The block's time, less sampling, at the reference speed."""
        return self.wall_s * REF_S / statistics.mean(self.loops)


class SpeedLog:
    """Loop times taken between sections that run in child processes."""

    def __init__(self):
        self.loops = [_loop(100_000) for _ in range(5)]

    def mark(self):
        """Calibrate once more; call after each timed section."""
        self.loops += [_loop(100_000) for _ in range(5)]

    def factor(self) -> float:
        """LOG_REF_S over the median loop time: multiply wall times by this."""
        return LOG_REF_S / statistics.median(self.loops)
