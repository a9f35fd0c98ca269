"""Timed set-up and the calibrated measurement loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import calib
import pctl

#: samples a run needs so that p90 leaves ``pctl.MIN_BEYOND`` beyond it
MIN_SAMPLES = pctl.min_samples(90)
#: a run stops after this many seconds even without ``MIN_SAMPLES``
#: (a run must end within 180 s, set-up and checks included)
MAX_SECONDS = 120.0


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    #: calibrated seconds of every operation that succeeded
    latencies: list[float] = field(default_factory=list)
    #: calibrated wall seconds of all steps
    busy: float = 0.0
    #: the same, uncalibrated
    raw_latencies: list[float] = field(default_factory=list)
    raw_busy: float = 0.0
    rounds: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.busy if self.busy else 0.0


def timed_setups(workload, cal: calib.Calibrator, repeats: int | None = None):
    """Set the workload up ``repeats`` times (by default the workload's
    ``setup_repeats``); returns the calibrated seconds of each set-up,
    the calibrated template-build seconds within each, and the raw
    seconds of each.  The last set-up stays in place for the
    measurement."""
    setups, builds, raw = [], [], []
    for k in range(repeats or workload.setup_repeats):
        if k:
            workload.teardown()
        before = cal.reading(calib.LONG_REPEATS)
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        f = calib.factor(before, cal.reading(calib.LONG_REPEATS))
        setups.append(elapsed * f)
        builds.append(workload.build_seconds * f)
        raw.append(elapsed)
    return setups, builds, raw


def measure(workload, seconds: float, cal: calib.Calibrator, recorder=None,
            min_samples: int = MIN_SAMPLES) -> Measurement:
    """Run whole rounds for ``seconds`` and until ``min_samples``
    operations succeeded (within ``MAX_SECONDS``).  Every operation is
    a calibrated step of its own; checks run between rounds, untimed."""
    m = Measurement()
    seg = calib.Segments(cal)
    steps = []  # per operation: its result and the recorder's span range
    succeeded = 0
    start = time.perf_counter()
    while True:
        workload.begin_round()
        results = []
        for i in workload.mix.order:
            first_span = recorder.mark() if recorder is not None else 0
            seg.start()
            i, ok, dt, value = workload.timed(i)
            seg.stop()
            last_span = recorder.mark() if recorder is not None else 0
            results.append((i, ok, dt, value))
            # keep no outputs past the round's checks: they would grow
            # the peak resident set with the length of the run
            steps.append(((i, ok, dt, None if ok else repr(value)),
                          first_span, last_span))
            succeeded += ok
        workload.check_round(results)
        del results
        m.rounds += 1
        now = time.perf_counter() - start
        if now >= MAX_SECONDS or (now >= seconds and succeeded >= min_samples):
            break
    for ((i, ok, dt, error), first_span, last_span), f in zip(steps, seg.factors()):
        if recorder is not None:
            recorder.scale(first_span, last_span, f)
        m.attempted += 1
        if ok:
            m.latencies.append(dt * f)
            m.raw_latencies.append(dt)
        else:
            m.failed += 1
            m.errors.append(f"{workload.specs[i].label}: {error}")
    m.busy = seg.busy_cal
    m.raw_busy = seg.busy_raw
    return m
