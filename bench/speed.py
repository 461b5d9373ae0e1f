"""Host-speed normalisation of the benchmark's timings.

On a shared machine the speed of one core drifts by 20-50% over seconds
to minutes, in CPU time as much as in wall time, so raw times of the same
job differ more between runs than any regression worth catching.  A
``SpeedProbe`` samples that speed while the job runs: every
``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler times a fixed
pure-Python loop (``probe``) in the main thread, between two bytecodes of
whatever the job is doing.  The job and the loop run on the same core at
the same moment, so they slow down together.

``clock()`` is ``perf_counter()`` minus the time spent in the probe, so a
span read from it holds only the job's own work.  ``normalise(t0, t1)``
turns such a span into reference seconds: seconds on a host where one
probe takes ``REFERENCE_S``.  The probes fall at even steps of CPU time,
so the job's time over the span, divided by the harmonic mean of the
probe times near it, counts the work done in units of one probe.  A
change that makes the job do more or slower work makes it run longer and
reads as more reference seconds; a host that runs slower for a while
does not.

Normalising assumes the job slows down in proportion to the loop.  On
the mbmlat census, six runs of one fixed job took 6.7 to 10.6 s raw and
34.3 to 34.8 probe units.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01     # process CPU time between probes
REFERENCE_S = 0.25e-3  # what one probe takes on the reference host
NEAREST = 8           # probes used for a span holding fewer than this

_GRAM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))


def probe() -> int:
    """The fixed unit of work: small-integer bilinear forms, as in mbmlat."""
    acc = 0
    for i in range(60):
        v = (i, i + 1, -i, 2)
        for a in range(4):
            row = _GRAM[a]
            acc += v[a] * sum(row[b] * v[b] for b in range(4))
    return acc


class SpeedProbe:
    """Samples the host's speed during a process's work; see the module doc."""

    def __init__(self):
        self.at: list[float] = []    # clock() when each probe ran
        self.took: list[float] = []  # how long each probe took, in seconds
        self.spent = 0.0             # total time spent probing

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the job's garbage is the job's time
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.at.append(start - self.spent)
        self.took.append(took)
        self.spent += took
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        while len(self.took) < NEAREST:  # a short process still gets its samples
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per clock second over [t0, t1]: from the probes
        inside the span, or from the NEAREST probes around its middle."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = min(max(mid - NEAREST // 2, 0), max(len(self.at) - NEAREST, 0))
            hi = lo + NEAREST
        return REFERENCE_S / statistics.harmonic_mean(self.took[lo:hi])

    def normalise(self, t0: float, t1: float) -> float:
        """The span [t0, t1] of clock() in reference seconds."""
        return (t1 - t0) * self.factor(t0, t1)
