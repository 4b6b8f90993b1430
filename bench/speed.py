"""The CPU's current speed, taken with a fixed probe around and during
each timed phase.

On a shared host a vCPU can run the same code 1.3-1.5x slower for
seconds to minutes at a time, whatever the program does.  So before each
timed phase a pass pins itself to the CPU whose probe runs fastest at that
moment; during the phase a ``Sampler`` probes that CPU every
``INTERVAL_S`` from a timer signal, and the time spent probing is taken
out of the phase's time; after the phase the CPU is probed once more.
``run.py`` reports each time as it would read on a CPU that runs the
probe in ``REFERENCE_S``: the measured time times ``REFERENCE_S`` over the
median probe time of the same pass.  A slow spell of the host slows the
probe with the pass and cancels out; a change in the program's own work
leaves the probe alone.
"""

from __future__ import annotations

import os
import signal
import time

PROBE_LOOPS = 100_000
# the probe's time on a 2-vCPU KVM guest (Intel Xeon, Python 3.11.7) in
# its fast mode, so there reported times read close to fast-mode wall time
REFERENCE_S = 6.5e-3
INTERVAL_S = 0.25
CPUS = sorted(os.sched_getaffinity(0))


def _loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def probe() -> float:
    """Wall time of a fixed pure-Python loop on the current CPU, best of two
    after a warm-up."""
    _loop()
    return min(_loop(), _loop())


def pin_fastest() -> float:
    """Pin this process to the CPU that probes fastest now; return its probe."""
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe()
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return times[best]


class Sampler:
    """Probes the CPU every ``interval`` seconds of wall time while active.

    The probe runs in a SIGALRM handler, so it waits for a running C call
    (a numpy kernel) to return.  ``spent`` is the time the probes took in
    the current phase.  An interval of 0 never probes.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.probes: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(min(_loop(), _loop()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
