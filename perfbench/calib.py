"""Calibrated wall-clock time.

The per-core speed of a small shared guest drifts by a factor of two
within a minute, and CPU time drifts with it, so raw seconds from two
runs of identical code do not compare.  Every timed step of a workload
(one operation) is therefore bracketed by a fixed reference kernel that
the benchmark owns, and the step's time is rescaled to the speed at
which that kernel takes :data:`NOMINAL_S` seconds:

    calibrated = raw * NOMINAL_S / reference_seconds

where ``reference_seconds`` is the mean of the kernel timings taken just
before and just after the step.  Sampling the speed after every step
matters: the speed also changes within a second, and one reading per
second of work left three times the spread.  The kernel is
interpreter-bound dict and sort work plus a numpy sort, the same mix of
work the program does, and it runs with the cyclic collector paused so
a collection triggered by the workload's garbage is not charged to it.
It runs pinned to each core the workload's processes may use in turn
(shard processes float across every core), and a reading is the mean
over cores.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

#: kernel time, in seconds, at the nominal speed the calibrated units
#: refer to: a round value a little above the kernel's time on a 2-core
#: KVM guest (1.3-2.0 ms); comparisons between runs never depend on it
NOMINAL_S = 0.0025

#: repetitions per core of a reading that brackets one long span (a
#: set-up); their median is kept.  Steps take one repetition per core.
LONG_REPEATS = 5

_KEYS = 3000
_SORT = 10000
_SORT_DATA = np.random.default_rng(12345).random(_SORT)


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its wall time in s."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(_KEYS):
            table[(i * 7919) % 10007] = i
        ranked = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
        total = 0
        for k, v in ranked:
            total += table.get(k, 0) ^ v
        np.sort(_SORT_DATA, kind="quicksort")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Takes reference readings on the cores a workload may use.

    ``cpus`` is the set of cores the workload's processes may run on;
    the default is this process's affinity mask, which forked shard
    processes inherit.
    """

    def __init__(self, cpus: set[int] | None = None) -> None:
        self.cpus = sorted(cpus if cpus is not None else os.sched_getaffinity(0))
        self.readings: list[float] = []

    def reading(self, repeats: int = 1) -> float:
        """Mean over cores of the median of ``repeats`` kernel times, in s."""
        mask = os.sched_getaffinity(0)
        per_core = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                per_core.append(statistics.median(reference_kernel() for _ in range(repeats)))
        finally:
            os.sched_setaffinity(0, mask)
        value = sum(per_core) / len(per_core)
        self.readings.append(value)
        return value


def factor(before: float, after: float) -> float:
    """Scale taking raw seconds of a span between two readings to
    calibrated seconds."""
    if before <= 0 or after <= 0:
        raise ValueError("reference readings must be positive")
    return NOMINAL_S / ((before + after) / 2.0)


def step_factors(readings: list[float]) -> list[float]:
    """Scale of each step between consecutive readings.

    Step ``k`` runs between ``readings[k]`` and ``readings[k + 1]``.  A
    reading of one repetition per core is now and then hit by an
    interrupt, so the step's speed is the median of the two readings
    around it and their two neighbours (fewer at the ends of the run).
    """
    if any(r <= 0 for r in readings):
        raise ValueError("reference readings must be positive")
    return [
        NOMINAL_S / statistics.median(readings[max(0, k - 1):k + 3])
        for k in range(len(readings) - 1)
    ]


class Segments:
    """A run cut into calibrated steps.

    Call :meth:`start` before a step's work and :meth:`stop` after it.
    Consecutive steps share the reading between them.  The steps'
    scales (:meth:`factors`) are known once the run has ended.
    """

    def __init__(self, calibrator: Calibrator, clock=time.perf_counter) -> None:
        self.cal = calibrator
        self._clock = clock
        self.readings: list[float] = []
        self.elapsed: list[float] = []
        self._t0 = 0.0

    def start(self) -> None:
        if not self.readings:
            self.readings.append(self.cal.reading())
        self._t0 = self._clock()

    def stop(self) -> None:
        self.elapsed.append(self._clock() - self._t0)
        self.readings.append(self.cal.reading())

    def factors(self) -> list[float]:
        return step_factors(self.readings)

    @property
    def busy_raw(self) -> float:
        return sum(self.elapsed)

    @property
    def busy_cal(self) -> float:
        return sum(e * f for e, f in zip(self.elapsed, self.factors()))
