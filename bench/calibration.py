"""Machine-speed calibration on a shared host.

The host's speed drifts in phases of tens of seconds, by up to half again
the pass time, and no run length that fits the benchmark's time budget
averages that out.  So while a pass runs, a timer interrupts it every
``INTERVAL_S`` and times a fixed pure-Python kernel on the same core.  The
pass time, with those interruptions taken out, is then reported at the
reference speed: it is multiplied by ``REF_KERNEL_S`` over the kernel's
mean time during the pass.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Kernel seconds at the reference speed: the kernel's typical time on the
#: 2-core Intel Xeon host the benchmark was defined on.  Changing it
#: rescales every reported time.
REF_KERNEL_S = 0.0009

#: Seconds between speed samples during a measurement.
INTERVAL_S = 0.2


def _kernel() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def _sample() -> float:
    """Median of three kernel timings."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Measurement:
    seconds: float = 0.0   # measured time, sampling excluded
    factor: float = 1.0    # scale to seconds at the reference speed

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


@contextmanager
def measure(periodic: bool = True) -> Iterator[Measurement]:
    """Time the enclosed block and sample the speed at its start, its end
    and, when ``periodic``, every ``INTERVAL_S`` in between.

    Use ``periodic=False`` while waiting on a child process, where a sample
    would compete with the child for the core.
    """
    m = Measurement()
    samples = [_sample()]
    paused = 0.0

    def on_alarm(signum, frame) -> None:
        nonlocal paused
        t0 = time.perf_counter()
        samples.append(_sample())
        paused += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm) if periodic else None
    if periodic:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield m
    finally:
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = time.perf_counter()
        if periodic:
            signal.signal(signal.SIGALRM, previous)
        samples.append(_sample())
        m.seconds = end - start - paused
        m.factor = REF_KERNEL_S / statistics.fmean(samples)
