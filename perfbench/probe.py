"""Scale timings to a reference machine speed, sampled while they run.

On a shared two-core virtual machine the same solve can run 35% slower
for tens of seconds at a time.  CPU time tracks wall time, so this is not
time spent descheduled, and repeating work inside a run does not average
it out: the slow phases last longer than a run's operations.

``SpeedProbe`` therefore times a small fixed computation (exact
``Fraction`` row updates, the solver's own hot path) every ``INTERVAL``
seconds from a ``SIGALRM`` handler while the measured code runs.
``measure`` subtracts the probes' own time from the measured seconds and
scales the rest by ``REFERENCE_SECONDS`` over the trimmed mean probe time
seen during the measurement.  The probe depends on nothing in the
repository, so no change to the solver can move it.  On the machine the
benchmark was tuned on, scaling cut the spread of single ring-4 solves
from 30% to 8% (quartile distance over median, 52 solves in one process).
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction
from typing import Callable

__all__ = ["SpeedProbe", "REFERENCE_SECONDS"]

INTERVAL = 0.1
# About the probe's time on the tuning machine in its fast phase (1.4 to
# 1.5 ms; 2.3 to 2.5 ms in its slow one).  Scaled times are seconds on a
# machine that runs the probe in this time.
REFERENCE_SECONDS = 0.0015
# Measurements shorter than this many probes borrow the latest ones.
MIN_PROBES = 5

_rng = random.Random(7)
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(12)) for _ in range(6)
)


def _probe() -> None:
    rows = [list(row) for row in _MATRIX]
    for r in range(len(rows)):
        inv = 1 / rows[r][r]
        pivot = [q * inv for q in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][r]
                rows[k] = [a - f * b for a, b in zip(rows[k], pivot)]
        rows[r] = pivot


class SpeedProbe:
    """Context manager that samples the probe while it is active.

    Only one may be active per process, and only in the main thread,
    because it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # A collection triggered by the probe's allocations would charge
        # the measured program's heap to the probe; it runs at the
        # program's next allocation instead.
        started = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(_timed_probe())
        finally:
            if collecting:
                gc.enable()
        self.stolen += time.perf_counter() - started

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_PROBES):
            _probe()
        self.samples = [_timed_probe() for _ in range(MIN_PROBES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn: Callable, *args):
        """Run ``fn(*args)``; return its result, its seconds without the
        probes, and those seconds scaled to the reference speed."""
        first, stolen = len(self.samples), self.stolen
        started = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - started - (self.stolen - stolen)
        during = self.samples[first:]
        if len(during) < MIN_PROBES:
            during = self.samples[-MIN_PROBES:]
        return result, seconds, seconds * REFERENCE_SECONDS / _trimmed_mean(during)


def _trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%, so a probe that was descheduled does not
    count."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def _timed_probe() -> float:
    started = time.perf_counter()
    _probe()
    return time.perf_counter() - started
