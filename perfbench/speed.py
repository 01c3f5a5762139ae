"""The speed of the host while a run measures, and timings rescaled by it.

The benchmark runs on a virtual machine shared with other tenants, whose
speed drifts by up to 1.8x over seconds to minutes; that drift, not the
program, made most of the spread between runs.  ``SpeedProbe`` times a
fixed pure-Python kernel every ``INTERVAL`` seconds of wall time, from a
timer signal handled in the measured process itself, so the samples come
from the same core and the same moments as the work they rescale.  A
timed interval is then reported as

    (its wall time - the probe's own time in it) * NOMINAL_S / kernel time

where the kernel time is the median of the samples taken inside the
interval, widened to the nearest ``MIN_SAMPLES`` for a short interval:
seconds on a host where the kernel takes ``NOMINAL_S``.
The kernel shares nothing with rht, allocates no tracked objects and runs
with the garbage collector off, so its work does not depend on rht's.
On a 2-vCPU shared VM, over 100 s of back-to-back enumerate-gated passes,
the kernel's median time per pass correlated 0.95 with the pass's wall
time, and rescaling cut the spread of pass times (IQR over median) from
0.28 to 0.07.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from statistics import median

INTERVAL = 0.02
MIN_SAMPLES = 10
# the kernel's typical time on the host the bounds were set on
NOMINAL_S = 250e-6


def kernel() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the kernel's time on a wall-clock timer while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0  # seconds spent in the probe so far
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        self.total += time.perf_counter() - start

    def seconds(self, start: float, end: float, probe_s: float) -> float:
        """Wall time of [start, end] less ``probe_s``, at the nominal speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            i = max(0, i - 1)
            j = min(len(self.starts), j + 1)
        if i == j:
            raise RuntimeError("no speed sample near a timed interval")
        return (end - start - probe_s) * NOMINAL_S / median(self.durations[i:j])


class Unprobed:
    """Plain wall time, for the traced run."""

    total = 0.0

    def __enter__(self) -> "Unprobed":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def seconds(self, start: float, end: float, probe_s: float) -> float:
        return end - start
