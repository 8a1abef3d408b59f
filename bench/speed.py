"""Correction of timings for the drifting speed of a shared CPU.

On a shared virtual CPU the speed of this process can change by nearly 2x
within seconds as other tenants' work comes and goes; uncorrected, the same
pass then takes 20-40% longer in one run than in the next.  ``SpeedProbe``
samples the speed: from SIGPROF, every 5 ms of CPU time, it times a fixed
handful of Fraction additions, the arithmetic that dominates jla.  A 10 ms
interval leaves the 5 ms commands of the small workload without a probe of
their own; at 5 ms the probes cost about 1% of the run.

The corrected time of an interval is its wall time, less the probes' own
time, times the mean of (reference probe time / probe time) over the probes
taken in it; an interval too short to hold a probe uses the probes on either
side.  The reference is the run's 1st-percentile probe time, the machine at
its fastest, so on a quiet machine the correction is 1 and corrected time is
wall time.

The correction fits code that slows down as the Fraction probe does, which
is most of jla.  The small-integer loop of the eigenvalue divisor search
barely slows on the machine this was tuned on, so the corrected time of a
command dominated by it (the rescaled sl2 rungs of ``bitsize``, the
``defects`` case) reads up to about 2x low while the machine is slow.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.005
REFERENCE_PERCENTILE = 1


class SpeedProbe:
    """Probe times of one run, in the order they were taken."""

    def __init__(self):
        # (start, duration) pairs, appended in one step so that an exception
        # raised by another signal handler cannot split a pair.
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 25):
            acc += Fraction(i, 7)
        self.samples.append((start, time.perf_counter() - start))

    def corrector(self):
        """A function mapping a wall-clock interval to its corrected seconds."""
        if not self.samples:
            return lambda start, end: end - start
        starts = [start for start, _ in self.samples]
        durations = [duration for _, duration in self.samples]
        ordered = sorted(durations)
        reference = ordered[len(ordered) * REFERENCE_PERCENTILE // 100]

        def corrected(start: float, end: float) -> float:
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_left(starts, end)
            if hi > lo:
                inside = range(lo, hi)
            else:
                inside = range(max(lo - 1, 0), min(hi + 1, len(starts)))
            busy = (end - start) - sum(durations[lo:hi])
            return busy * statistics.fmean(reference / durations[i] for i in inside)

        return corrected
