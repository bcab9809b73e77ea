"""The machine's speed, probed around every timed sample, to put timings on one scale.

A shared host runs the same code up to half again as slow in some seconds as
in others, and the slow spells last long enough that the median of a 30 s run
moves by a quarter from run to run. No statistic over one run's samples
removes that, but a short probe run next to each sample does: the probe slows
down with the host, and a timing divided by the probe's slowdown stays put.

``Speed.probe`` runs a fixed pure-Python kernel of a few milliseconds and
records its slowdown against ``REFERENCE_PROBE_S``. ``Speed.clock`` is
``perf_counter`` minus the time spent in probes, so that no timing contains
one. ``Speed.at_reference`` divides an interval by the mean slowdown of the
probes inside it and of the nearest probe on each side of it: the time the
interval would have taken with the machine at reference speed. Code that
starts threads or processes of its own would also slow the probe; the report
keeps the raw timings next to the normalized ones for that reason.
"""
from __future__ import annotations

import bisect
import statistics
import time

PROBE_LOOPS = 60_000
# A round figure for the probe's time on a 2-vCPU Intel Xeon VM with
# CPython 3.11, where it took 4 to 6 ms. It sets the scale of every
# normalized timing; changing it changes every baseline.
REFERENCE_PROBE_S = 5.0e-3


def _kernel() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


class Speed:
    """Probe-free clock plus the slowdown measured at each probe."""

    def __init__(self, timer=time.perf_counter, kernel=_kernel):
        self._timer = timer
        self._kernel = kernel
        self._probe_s = 0.0
        self.times: list[float] = []      # probe-free clock at each probe
        self.slowdowns: list[float] = []  # probe time / REFERENCE_PROBE_S

    def clock(self) -> float:
        return self._timer() - self._probe_s

    def probe(self) -> None:
        t0 = self._timer()
        self._kernel()
        took = self._timer() - t0
        self.times.append(t0 - self._probe_s)
        self._probe_s += took
        self.slowdowns.append(took / REFERENCE_PROBE_S)

    def at_reference(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of ``clock`` scaled to reference speed."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1) + 1
        return (t1 - t0) / statistics.fmean(self.slowdowns[lo:hi])
