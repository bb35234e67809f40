"""Timings at a fixed reference speed, sampled while the program runs.

On a shared virtual machine the speed of a core is not constant.  On the
2-vCPU machine this benchmark was built on, a fixed 10 ms pure-Python
kernel ranged from 5.7 to 23 ms within 40 s, CPU time tracked wall time
(the code runs slower; it is not descheduled), and whole 8 s enumerations
drifted by a third between runs minutes apart.  Raw wall times then spread
more than any useful regression bound.

A :class:`SpeedProbe` therefore samples the speed while a phase runs:
every ``INTERVAL_S`` a ``SIGALRM`` handler times :func:`kernel`, a fixed
piece of pure-Python work that does not touch critenum.  A phase's duration
is then converted to seconds at the reference speed, the speed at which
the kernel takes ``K_REF_NS``:

    calibrated = program_time * mean(K_REF_NS / kernel_time_i)

over the phase's samples, or, for an operation much shorter than a phase
(one certified host), over the samples taken around it.
``program_time`` excludes the time spent in the kernel itself (about 1% of
a phase), and the mean of the sampled speeds is the phase's average speed,
because samples are evenly spaced in time.  A slower program still reads
slower, since the kernel's cost does not depend on the program.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter_ns

INTERVAL_S = 0.02
INTERVAL_NS = int(INTERVAL_S * 1e9)
# The kernel's time at the reference speed: its lower decile over 3,000
# samples on the machine above (Python 3.11).
K_REF_NS = 160_000


def kernel() -> int:
    """Fixed pure-Python work: integer, bit, list, tuple and dict operations."""
    rows = [0] * 16
    x = 12345
    acc = 0
    seen: dict[tuple, int] = {}
    for i in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        r = x & 0xFFFF
        rows[i & 15] ^= r
        acc += (rows[(i * 7) & 15] & r).bit_count()
        if i & 63 == 0:
            t = tuple(sorted(rows))
            seen[t] = seen.get(t, 0) + 1
    return acc


class Phase:
    """The speed samples taken while one phase ran."""

    def __init__(self):
        self.at: list[int] = []       # program clock when each sample started
        self.samples: list[int] = []  # kernel nanoseconds of each sample

    @property
    def factor(self) -> float:
        """Reference seconds per program second during the phase."""
        return sum(K_REF_NS / k for k in self.samples) / len(self.samples)

    def factor_near(self, start_ns: int, end_ns: int) -> float:
        """The factor from the samples within one interval of [start, end].

        The speed changes from one 10 ms to the next, so a short operation
        is calibrated by the samples around it; the phase factor stands in
        when there are none.
        """
        lo = bisect_left(self.at, start_ns - INTERVAL_NS)
        hi = bisect_right(self.at, end_ns + INTERVAL_NS)
        near = self.samples[lo:hi]
        if not near:
            return self.factor
        return sum(K_REF_NS / k for k in near) / len(near)


class SpeedProbe:
    """Samples the machine's speed and keeps a clock that omits the sampling."""

    def __init__(self):
        self.kernel_ns = 0  # total time spent sampling
        self.phase: Phase | None = None

    def clock_ns(self) -> int:
        """Nanoseconds of program time: wall time minus the sampling."""
        return perf_counter_ns() - self.kernel_ns

    def _sample(self, *_):
        at = self.clock_ns()
        start = perf_counter_ns()
        kernel()
        took = perf_counter_ns() - start
        self.kernel_ns += took
        if self.phase is not None:
            self.phase.at.append(at)
            self.phase.samples.append(took)

    @contextmanager
    def sampling(self):
        """Sample the speed while the block runs; yields its :class:`Phase`.

        One sample is also taken at each end, so a short phase has some.
        """
        phase = Phase()
        self.phase = phase
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield phase
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            self.phase = None
