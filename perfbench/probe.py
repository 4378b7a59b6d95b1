"""Host-speed probe: a fixed pure-Python kernel timed every PROBE_INTERVAL_S.

The benchmark host is a shared virtual machine whose speed drifts by up to
2x over seconds to minutes while the process's CPU time keeps pace with its
wall time (steal time stays near zero), so neither repetition nor CPU time
removes the drift.  The probe samples it during the timed region instead:
SIGALRM interrupts the engine between bytecodes, the handler times one run of
``kernel`` (exact-rational row scaling, the same kind of work as the engine's
hot path, but the benchmark's own code so that engine changes cannot move
it), and the engine resumes.

If the engine runs at a rate proportional to the probe's speed, then
``work_s * mean(PROBE_REF_S / sample)`` is the time the same work would take
on the reference host at full speed.  Probe time is removed from the wall
time first.  An import is too short for the timer, so ``spot_speed`` samples
the kernel right after it instead.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from math import gcd

PROBE_INTERVAL_S = 0.1
#: Duration of one ``kernel`` run on an uncontended core of the reference host
#: (Intel Xeon, 2.0 GHz, Python 3.11.7); it only sets the unit of the result.
PROBE_REF_S = 0.004


def kernel() -> int:
    seen = set()
    for i in range(1, 400):
        row = (i, 3 * i - 7, i * i + 1)
        fracs = [Fraction(x, 6) for x in row]
        ints = tuple(int(f * 6) for f in fracs)
        g = gcd(*ints)
        seen.add(tuple(x // g for x in ints))
    return len(seen)


class Probe:
    """Context manager that samples ``kernel`` on a wall-clock timer."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def in_region_s(self) -> float:
        """Probe time spent inside the timed region (all but the edge samples)."""
        return sum(self.samples[1:-1])

    def speed(self) -> float:
        """Mean host speed during the region, relative to the reference host."""
        return statistics.fmean(PROBE_REF_S / s for s in self.samples)


def spot_speed(samples: int = 3) -> float:
    """Host speed now, from a few back-to-back kernel runs after a warm-up run.

    In a fresh interpreter the first run is slower by about 1.5 ms whatever the
    host's state, so it is not counted.
    """
    kernel()
    host = Probe()
    for _ in range(samples):
        host.sample()
    return host.speed()
