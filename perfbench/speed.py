"""The machine's current speed, sampled while the benchmark runs.

On a shared virtual machine the speed of a vCPU can switch between regimes
that differ by 1.5x or more and last tens of seconds, so raw pass times from
runs made minutes apart scatter by about 20%.  ``SpeedProbe`` times a fixed
pure-Python kernel every ``interval`` seconds from a SIGALRM handler, inside
the process being measured.  A span of work is then rescaled to the time it
would take at reference speed, the speed at which the kernel takes ``REF_S``:

    ref_time = (raw_time - kernel_time) * mean(REF_S / kernel_sample)

where the samples are those taken during the span.  Samples come at even
intervals of wall time, so their mean speed is the time-average of the
speed over the span.  The kernel time is subtracted because it is the
probe's own work, not the program's.
"""

from __future__ import annotations

import signal
from time import perf_counter

REF_S = 0.00025  # kernel time at reference speed (fast regime, Xeon vCPU, CPython 3.11)


def kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(300):
        t = (i, i + 1, i + 2)
        acc += sum(a * b for a, b in zip(t, t))
        table[i % 17] = acc
    return acc


class SpeedProbe:
    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int, until: int | None = None) -> float:
        """Mean speed over ``samples[since:until]``, or the sample just before."""
        window = self.samples[since:until] or self.samples[max(since - 1, 0):since]
        return sum(REF_S / s for s in window) / len(window)

    def kernel_time(self, since: int, until: int | None = None) -> float:
        return sum(self.samples[since:until])
