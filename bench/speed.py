"""Machine-speed probe: a fixed reference loop sampled all through a run.

On a shared host the speed of a vCPU changes by up to 1.6x, for seconds
to minutes at a time, and CPU time follows wall time, so no clock of the
process can tell a slow machine from a slow program.  The probe runs a
fixed exact-arithmetic loop (rational Gaussian elimination, the same kind
of work as the program's simplex) from a SIGALRM interval timer every
PERIOD_S of wall time, in the benchmark's only thread.  Each sample is the
loop's wall time at that moment.  A timed stretch of the benchmark then
reports

    net seconds * REFERENCE_S / mean(samples taken during it)

that is, its seconds at the speed at which the loop takes REFERENCE_S.
Samples are evenly spread in wall time, so their mean weights each speed
by how long the stretch ran at it.  Net seconds leave out the time the
probe itself spent.  The loop does not change, whatever the program does;
the cyclic collector is off while it runs, so the program's heap does not
change its time either.
"""

from __future__ import annotations

import gc
import signal
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# About the loop's median wall time, in seconds, on a 2-vCPU KVM guest
# (Intel Xeon, Python 3.11).  A fixed constant: it only sets the scale of
# the reported seconds.
REFERENCE_S = 0.004


def reference_loop() -> Fraction:
    """Solve a fixed 9x9 rational system by Gauss-Jordan elimination."""
    n = 9
    rows = [[Fraction((7 * i + 13 * j) % 17 + 1, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
            for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows[n - 1][n] / rows[n - 1][n - 1]


class SpeedProbe:
    """Samples the reference loop every PERIOD_S; a context manager.

    ``phase`` names what the benchmark is timing, any hashable value; each
    sample is filed under the phase that was current when the timer fired.
    ``clock`` is perf_counter less the time the probe itself has taken.
    """

    def __init__(self) -> None:
        self.phase: object = "idle"
        self.samples: dict[object, list[float]] = defaultdict(list)
        self.stolen = 0.0
        self.ticks = 0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = perf_counter()
            reference_loop()
            self.samples[self.phase].append(perf_counter() - begin)
            self.ticks += 1
        finally:
            if collecting:
                gc.enable()
            self.stolen += perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def reset(self) -> None:
        """Drop the samples taken so far."""
        self.samples = defaultdict(list)

    def factor(self, phase) -> float:
        """Net seconds of ``phase`` to seconds at the reference speed.

        A phase too short to catch a sample takes the mean of every sample
        since the last reset.
        """
        samples = self.samples.get(phase) or [s for v in self.samples.values() for s in v]
        return REFERENCE_S * len(samples) / sum(samples) if samples else 1.0


class WallClock:
    """Stands in for SpeedProbe where plain wall time is wanted (traced runs)."""

    def __enter__(self) -> WallClock:
        return self

    def __exit__(self, *exc) -> None:
        pass

    phase = "idle"
    ticks = 0
    clock = staticmethod(perf_counter)

    def reset(self) -> None:
        pass

    def factor(self, phase) -> float:
        return 1.0
