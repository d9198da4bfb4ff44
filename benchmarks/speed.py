"""The machine's speed, sampled while the benchmark's timed work runs.

Other tenants of a shared host slow the benchmark's vCPUs by up to two
times, in phases from a few milliseconds to minutes, and the guest sees no
steal time while it happens. A run that falls in a slow phase reads up to
twice as slow, however long it is and whichever statistic it reports.

So while timed work runs, a ``Meter`` interrupts it every ``EVERY_S``
seconds of wall time (SIGALRM) to time one run of a small fixed
pure-Python kernel, and scales each stretch of work by ``REFERENCE_S``
times the mean of 1 / kernel time over the samples taken during it: the
work a stretch did, in seconds at the reference speed. The kernel's own time
is taken out of the work's time. The kernel does the kinds of work polymut
spends its time on (tuples as dict keys, integer arithmetic, a sort) and is
part of the benchmark, not of polymut, so it is the same on every commit
measured. The reference speed is the one at which a kernel run takes
``REFERENCE_S`` seconds (about the median of back-to-back kernel runs on a
2-vCPU Xeon microVM). A scaled time is comparable between runs and commits
on one machine, not between machines.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

# one kernel run at the reference speed, in seconds
REFERENCE_S = 8.5e-5
KERNEL_N = 200
EVERY_S = 0.005
# a stretch with fewer samples than this gets more, taken right after it
MIN_SAMPLES = 8


def kernel() -> list:
    d: dict = {}
    x = 1
    for i in range(KERNEL_N):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
        x = (x * 3 + i) % 1000003
    return sorted(d.items())


class Meter:
    def __init__(self) -> None:
        # seconds per kernel run, one per sample
        self.samples: list[float] = []
        # seconds the samples have taken, to subtract from the work's time
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += clock() - t0
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous if self._previous is not None else signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def work(self, t0: float, mark: tuple[int, float]) -> float:
        """Seconds since clock() read `t0` and `mark` was taken, less the
        samples' own time."""
        return clock() - t0 - (self.spent - mark[1])

    def factor(self, mark: tuple[int, float]) -> float:
        """Scale from seconds of work done since `mark` to seconds at the
        reference speed."""
        while len(self.samples) - mark[0] < MIN_SAMPLES:
            self._sample()
        return REFERENCE_S * statistics.fmean(1 / s for s in self.samples[mark[0]:])

    def timed(self, fn):
        """Runs `fn()` with the meter on; returns (seconds, scaled seconds,
        what fn returned). Work that `fn` waits for in a child process is
        sampled from this one, which runs the kernel while it waits."""
        mark, t0 = self.mark(), clock()
        out = fn()
        dt = self.work(t0, mark)
        return dt, dt * self.factor(mark), out
