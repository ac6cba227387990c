"""Reference seconds: wall time corrected for how fast the machine runs now.

On a shared host the same single-threaded Python code runs at different
speeds from one moment to the next: on the 2-vCPU VM this benchmark was
built on, each vCPU flips between two rates about 1.7x apart, for spells of
a fraction of a second to minutes, independently of the other vCPU, and
process CPU time slows with it.  ``Speed`` samples that rate while the work
runs: a ``SIGALRM`` timer interrupts the process every ``PERIOD_S`` of wall
time and times a fixed pure-Python kernel that shares nothing with tame3 (a
sparse product of two fixed 20-term polynomials over native ints with dict
accumulation, then a ``Fraction`` per term: the mix of work in
``Poly.__mul__``).

A reference second is defined as the time in which the kernel runs
``1 / REFERENCE_KERNEL_S`` times.  A stretch of ``dt`` wall seconds is
``dt`` times the mean of ``REFERENCE_KERNEL_S / k`` over the kernel times
``k`` sampled inside it (the two samples around it when it is shorter than
a period).  ``REFERENCE_KERNEL_S`` is the kernel's time on that VM (x86_64,
Python 3.11.7) at its fast rate, so there reference seconds read as wall
seconds at the fast rate.  A change to tame3 moves the work's time and not
the kernel's, so it shows in reference seconds in full.  The time spent in
the sampler itself is left out of every measured stretch.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0004
PERIOD_S = 0.02
TERMS = 20


def _operand(rng: random.Random) -> list:
    return [((rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)),
             rng.randint(-9**9, 9**9)) for _ in range(TERMS)]


def _kernel(A: list, B: list) -> dict:
    acc: dict = {}
    for (a0, a1, a2), c1 in A:
        for (b0, b1, b2), c2 in B:
            m = (a0 + b0, a1 + b1, a2 + b2)
            v = acc.get(m)
            acc[m] = c1 * c2 if v is None else v + c1 * c2
    return {m: Fraction(v, 6) for m, v in acc.items() if v}


class Speed:
    """Samples reference seconds per wall second while ``sampling()`` is
    open, and turns measured stretches into reference seconds."""

    def __init__(self):
        rng = random.Random(0)
        self.A, self.B = _operand(rng), _operand(rng)
        self.times = array("d")      # perf_counter at the middle of each sample
        self.factors = array("d")    # REFERENCE_KERNEL_S / kernel time
        self.spent = 0.0             # wall time spent sampling
        self.busy = False
        for _ in range(3):
            _kernel(self.A, self.B)

    def sample(self, *_signal) -> None:
        if self.busy:  # the timer fired inside a sample; it would time itself
            return
        self.busy = True
        perf = time.perf_counter
        collecting = gc.isenabled()
        gc.disable()  # a collection of the work's garbage is not the kernel's time
        t0 = perf()
        _kernel(self.A, self.B)
        t1 = perf()
        if collecting:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.factors.append(REFERENCE_KERNEL_S / (t1 - t0))
        self.spent += perf() - t0
        self.busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()  # so every stretch has a sample after it

    def start(self) -> tuple[float, float]:
        return self.spent, time.perf_counter()

    def stop(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, wall seconds without the sampler's own time)."""
        end = time.perf_counter()
        spent, start = mark
        return start, end, end - start - (self.spent - spent)

    def reference(self, start: float, end: float, wall: float) -> float:
        """`wall` seconds measured between perf_counter `start` and `end`,
        in reference seconds.  Needs a sample after `end`."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            inside = self.factors[lo:hi]
            return wall * sum(inside) / len(inside)
        around = self.factors[max(lo - 1, 0):lo + 1]
        return wall * sum(around) / len(around)

    def summary(self) -> dict:
        f = sorted(self.factors)
        if not f:
            return {"samples": 0}
        return {"samples": len(f), "min": f[0], "median": statistics.median(f),
                "max": f[-1], "sampler_s": self.spent}
