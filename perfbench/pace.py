"""Pace of the machine, sampled all through a measurement.

On a shared machine, other work slows this process down by up to a factor
of two, in episodes that last from seconds to minutes.  No run length the
benchmark can afford averages that out, and the minimum over repeats does
not remove it either.  While a ``Pace`` is entered, a timer signal runs a
fixed pure-Python reference kernel every PERIOD_S seconds of wall time, so
the kernel is slowed by the same episodes as the code under test.
``Pace.seconds`` takes the kernel's own time out of the span and rescales
the rest to the nominal pace, at which one kernel call takes NOMINAL_TICK_S
seconds.  The kernel imports nothing and calls no framelets code, so no
change to the code under test can change it.
"""

from __future__ import annotations

import signal
import time

#: wall seconds between two samples of the reference kernel
PERIOD_S = 0.02
#: seconds of one reference kernel call at the nominal pace (about what it
#: takes on an unloaded 2.1 GHz Xeon core with CPython 3.11)
NOMINAL_TICK_S = 2.0e-4

_SINK = {}


def tick() -> None:
    """The reference kernel: float arithmetic and dict stores, ~1500 steps."""
    x = 0.5
    for i in range(1500):
        x = (x * 3.7 + i) % 1.0
        _SINK[i % 97] = x


class Pace:
    """Samples the reference kernel while entered; see the module doc.

    Wall time is measured from just after ``__enter__`` to ``__exit__``.
    One kernel call at entry gives a sample even for a short span.
    """

    def __init__(self):
        self.ticks = 0
        self.tick_s = 0.0
        self._start = self._stop = 0.0
        self._tick_s_outside = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        tick()
        self.tick_s += time.perf_counter() - start
        self.ticks += 1

    def __enter__(self) -> "Pace":
        self._sample()
        self._tick_s_outside = self.tick_s
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stop = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def seconds(self) -> float:
        """Wall seconds of the span without the kernel calls, at the nominal pace."""
        wall_s = self._stop - self._start - (self.tick_s - self._tick_s_outside)
        return wall_s * NOMINAL_TICK_S * self.ticks / self.tick_s
