"""Times at a fixed host speed, from a probe run while the timed code runs.

The benchmark was written on a shared 2-vCPU VM whose vCPUs run up to twice
as slow, for a fraction of a second to half a minute at a time, while other
load on the host uses the same cores; each vCPU slows on its own.  Wall time
of the same work then spreads by 20-40% between runs.  No clock in the guest
leaves that out: thread CPU time slows by the same factor, and the VM has no
hardware counters to count instructions with.

So a ``Speedometer`` runs a short fixed probe before and after a timed region
and every ``PERIOD_S`` inside it, from a SIGALRM handler, and takes the probe
time out of the region's time.  The region's time scaled by ``REFERENCE_S``
over the mean probe time is its time at the speed at which the probe takes
``REFERENCE_S``.  The host slows the probe and the program by nearly the same
factor when they interleave this finely, so the scaled time follows the
program's cost and much less the host's load: over ten runs per workload
there, the IQR over the median of the end-to-end times was 0.03-0.18 scaled
against 0.10-0.61 in wall time (perfbench/README.md).  The probe does the kinds of work the program
does: an interpreter loop, small numpy operations and JSON.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# The probe's time on an unloaded vCPU of the VM above; it sets the unit.
REFERENCE_S = 3.5e-4

_SMALL = np.linspace(0.0, 1.0, 32)
_DOC = {"a": list(range(100)), "b": [0.5 * i for i in range(100)], "c": "x" * 200}


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    x = _SMALL
    for _ in range(40):
        x = np.maximum(x * 0.5 + 0.1, 0.0)
    for _ in range(2):
        json.loads(json.dumps(_DOC))
    return time.perf_counter() - start


class Speedometer:
    """Context manager timing one region; afterwards ``wall_s`` is its wall
    time less the probes' and ``reference_s`` that time at the reference speed.

    With ``period_s`` 0 it probes only before and after the region.  It owns
    SIGALRM while the region runs, so regions must not nest.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s

    def __enter__(self) -> Speedometer:
        self.probes = [probe()]
        self._inside = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def _on_alarm(self, signum, frame) -> None:
        if self._inside:  # an alarm already pending at __exit__ is dropped
            self.probes.append(probe())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._inside = False
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - sum(self.probes[1:])
        self.probes.append(probe())
        self.reference_s = self.wall_s * REFERENCE_S / statistics.fmean(self.probes)
