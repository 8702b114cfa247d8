"""Machine-speed probe for normalising step times.

On a shared machine the speed of one core drifts by about 20%, within
seconds, and a drift can last a whole run. A fixed loop ranged from 24 to
36 ms on a shared 2-vCPU Intel Xeon virtual machine, and raw repetition
times of 20-second runs spread by 10 to 21% from seed to seed. So the
benchmark times this fixed probe between steps and divides each step's
time by the probe times around it. The probe mixes the kinds of work dpabc
does: frozenset intersections and unions, a bitmask scan over ballot types,
Fraction arithmetic, and building, sorting and counting small tuples.
Different work slows by different amounts, and the mix tracked dpabc's
workloads better than any one kind. No change to dpabc changes the probe.
A normalised time is in *cal*, units of one probe run.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

_SETS = [frozenset(range(i % 11, i % 11 + 1 + i % 5)) for i in range(48)]
_TYPES = [(frozenset({i, i + 1, (i * 3) % 9}), i % 3 + 1) for i in range(9)]
# one measurement per this many seconds, between steps
EVERY_S = 0.2
# a step is normalised by the probes within this many seconds of it
WINDOW_S = 1.5
# most measurements taken back to back after one long step
CATCH_UP = 8
# seconds per cal for setup_s, which must read in seconds: about the median
# probe time on the machine the benchmark was built on
NOMINAL_S = 0.009


def _sets() -> int:
    acc = 0
    for a in _SETS:
        for b in _SETS:
            acc += len(a & b) + len(a | b)
    return acc


def _masks() -> int:
    acc = 0
    for mask in range(1, 1 << len(_TYPES)):
        common, union, size = None, frozenset(), 0
        for idx, (ballot, count) in enumerate(_TYPES):
            if mask >> idx & 1:
                size += count
                union |= ballot
                common = ballot if common is None else common & ballot
        acc += min(3, len(common), size // 2) > len(union) // 4
    return acc


def _fractions() -> Fraction:
    total = Fraction(0)
    for _ in range(3):
        for i in range(1, 400):
            total += Fraction(i % 13, 2 * (i % 7) + 1)
    return total


def _tuples() -> int:
    counts: dict = {}
    for i in range(1500):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe_once() -> float:
    start = time.perf_counter()
    _sets()
    _masks()
    _fractions()
    _tuples()
    return time.perf_counter() - start


class Probe:
    """Probe measurements, one per ``EVERY_S`` seconds, and the speed factor
    of an interval: the mean probe time within ``WINDOW_S`` of it. One probe
    jitters by more than the drift it tracks, so the factor pools the probes
    of a few seconds. With a tracer, each measurement is a ``bench.probe``
    span, which belongs to no dpabc layer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.at: list = []
        self.cal_s: list = []
        # total time spent measuring, for steps that let the probe run inside them
        self.spent_s = 0.0

    def measure(self) -> None:
        start = time.perf_counter()
        span = self.tracer.open("bench.probe") if self.tracer else None
        self.cal_s.append(probe_once())
        if self.tracer:
            self.tracer.close(span)
        self.at.append(time.perf_counter())
        self.spent_s += self.at[-1] - start

    def maybe_measure(self) -> None:
        """Measure once per ``EVERY_S`` elapsed since the last probe. After a
        long step this catches up with several probes (at most
        ``CATCH_UP``), so a step that ran for seconds still has probes
        around it."""
        if not self.at:
            self.measure()
            return
        due = int((time.perf_counter() - self.at[-1]) / EVERY_S)
        for _ in range(min(due, CATCH_UP)):
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """Mean probe time from the last probe before ``start - WINDOW_S``
        to the first probe after ``end + WINDOW_S``."""
        first = max(bisect_right(self.at, start - WINDOW_S) - 1, 0)
        last = min(bisect_left(self.at, end + WINDOW_S), len(self.at) - 1)
        return statistics.fmean(self.cal_s[first : last + 1])
