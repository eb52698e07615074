"""Speed calibration: a fixed pure-Python task timed while items run.

The 2-vCPU hosts this benchmark runs on switch between a fast and a slow
state every second or so (a fixed loop runs up to 60% slower in the slow
one) and drift by 15-30% over minutes, which is more than a run can
average out.  So the worker samples the host's speed: ``Sampler`` times a
fixed task before and after every item and, from a timer signal, every
``PERIOD_S`` while it runs.  The task is shaped like qburst's own work
(row reduction of a small matrix over a log/exp-table field, in lists,
comprehensions and method calls) and imports nothing from qburst, so no
change to the package moves it.  A time measured over a stretch of
samples is rescaled to the speed at which one sample takes
``REFERENCE_S``:

    normalized = (measured - time spent sampling) * mean(REFERENCE_S / sample)

The mean of the rate ``REFERENCE_S / sample`` over samples spaced evenly
in time is the share of reference-speed work the host did per second.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# Median duration of ``sample`` on the 2-vCPU Intel Xeon host with
# Python 3.11.7 that the baselines in meta.json were measured on.
REFERENCE_S = 230e-6

# Timer period of the samples taken while an item runs.
PERIOD_S = 0.005

# Each sample is the faster of this many runs of the task, so that one
# interrupt or cold cache line does not inflate it.
REPEATS = 2


class _Field:
    """GF(2^6) by log/exp tables, as small as qburst's fields."""

    def __init__(self, degree: int = 6, modulus: int = 0b1000011):
        size = 1 << degree
        self._exp = [0] * (2 * size)
        self._log = [0] * size
        x = 1
        for i in range(size - 1):
            self._exp[i] = self._exp[i + size - 1] = x
            self._log[x] = i
            x <<= 1
            if x & size:
                x ^= modulus
        self.size = size

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        return self._exp[(self.size - 1 - self._log[a]) % (self.size - 1)]


_FIELD = _Field()
_rng = random.Random(0)
_MATRIX = [[_rng.randrange(_FIELD.size) for _ in range(14)] for _ in range(8)]


def _rank(matrix: list[list[int]]) -> int:
    f = _FIELD
    work = [list(row) for row in matrix]
    rows, cols = len(work), len(work[0])
    pivot = 0
    for col in range(cols):
        sel = next((r for r in range(pivot, rows) if work[r][col]), None)
        if sel is None:
            continue
        work[pivot], work[sel] = work[sel], work[pivot]
        inv = f.inv(work[pivot][col])
        work[pivot] = [f.mul(inv, v) for v in work[pivot]]
        for r in range(rows):
            if r != pivot and work[r][col]:
                c = work[r][col]
                work[r] = [v ^ f.mul(c, p) for v, p in zip(work[r], work[pivot])]
        pivot += 1
        if pivot == rows:
            break
    return pivot


_EXPECTED = _rank(_MATRIX)


def sample() -> float:
    """Seconds the calibration task takes now (fastest of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        result = _rank(_MATRIX)
        best = min(best, perf_counter() - t0)
        if result != _EXPECTED:
            raise RuntimeError("calibration task gave a different result")
    return best


class Sampler:
    """Speed samples taken on demand and from a ``SIGALRM`` timer.

    ``mark`` takes a sample and returns its index.  Work timed from ``t0``
    to ``t1`` between the marks ``first`` and ``last`` ran at the mean
    rate ``factor(first, last)``, and ``spent(first, last, t0, t1)`` of
    its time went to timer samples.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.rates: list[float] = []
        self._previous = None

    def _take(self) -> None:
        t0 = perf_counter()
        rate = REFERENCE_S / sample()
        duration = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(duration)
        self.rates.append(rate)

    def _on_alarm(self, signum, frame) -> None:
        self._take()

    def mark(self) -> int:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._take()
            return len(self.rates) - 1
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int, last: int) -> float:
        """Mean rate over the samples from mark ``first`` to mark ``last``."""
        return statistics.fmean(self.rates[first:last + 1])

    def spent(self, first: int, last: int, t0: float, t1: float) -> float:
        """Time taken by the samples after mark ``first`` and before mark
        ``last`` that started between ``t0`` and ``t1``."""
        return sum(
            d for s, d in zip(self.starts[first + 1:last], self.durations[first + 1:last])
            if t0 < s < t1
        )
