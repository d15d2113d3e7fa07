"""A speed meter: times a small fixed piece of reference work again and
again, so that CPU seconds can be rescaled to one reference speed.

On a shared host each vCPU switches, within a second and independently of
the other, between states up to 1.8x apart in speed, and the mix of states
drifts over minutes. Raw seconds of the same code therefore spread more
between runs than a change to the program should be judged by. The meter
takes the speed where the work runs: inside a measured span a timer signal
interrupts the program every ``PERIOD_S`` and times one probe, and each
stretch of program time between two probes is rescaled by

    reference_seconds = cpu_seconds * REFERENCE_S / probe_cpu_seconds

with ``probe_cpu_seconds`` the median of the probes around the stretch.
The probes' own time is left out. Short spans measured from outside (a
child process) use the median of a few probes before and after them
instead.

Both sides are process CPU time, not wall time: the measured program is
single-threaded and does no I/O inside a span, so the two differ only by
time the CPU spent on other processes, which would otherwise be charged to
whichever run happened to share the CPU.

The probe is plain Python of the same kind as the package's hot paths
(exact rational elimination, products of sparse dict polynomials with
integer coefficients) and imports nothing from the package, so a change to
the program never changes it.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import process_time

# CPU seconds of one probe that rescaled times are quoted at: a round
# figure near its time on a 2-vCPU x86-64 host with Python 3.11.7, so that
# rescaled seconds read close to that host's seconds.
REFERENCE_S = 0.0012
PERIOD_S = 0.03


def _eliminate(rng, rows, cols):
    """Reduced row echelon form of a random rational matrix; its rank."""
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)]
         for _ in range(rows)]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _poly_product(rng, terms):
    """Number of terms of the square of a random sparse two-variable dict
    polynomial."""
    a = {(rng.randint(-8, 8), rng.randint(0, 5)): rng.randint(-5, 5)
         for _ in range(terms)}
    product = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in a.items():
            key = (e1 + e2, (f1 * f2) % 7)
            product[key] = product.get(key, 0) + c1 * c2
    return len(product)


def probe():
    """CPU seconds of one piece of reference work, the same on every call."""
    start = process_time()
    rng = random.Random(12345)
    checksum = _eliminate(rng, 6, 7) + _poly_product(rng, 16)
    seconds = process_time() - start
    if checksum <= 0:  # keeps the work observable
        raise AssertionError("reference work produced nothing")
    return seconds


def calibrate(probes):
    """Median CPU seconds of ``probes`` probes run back to back."""
    return statistics.median(probe() for _ in range(probes))


def rescale(seconds, probe_s):
    """``seconds`` run while one probe took ``probe_s``, at the reference
    speed."""
    return seconds * REFERENCE_S / probe_s


class SpeedMeter:
    """Probes the speed from a SIGALRM handler while a span runs.

    ``with meter: ...`` gives ``meter.cpu_s``, the span's CPU seconds
    without the probes, ``meter.scaled_s``, the same rescaled to the
    reference speed, and ``meter.probe_s``, the probes' CPU seconds. Spans
    add up over repeated ``with`` blocks. Only one meter may run at a time,
    in the main thread.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.cpu_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0
        self.probe_s = 0.0
        self._marks = []  # (stretch start, stretch end, probe seconds)

    def _tick(self, signum, frame):
        end = process_time()
        seconds = probe()
        self._marks.append((self._stretch_start, end, seconds))
        self._stretch_start = process_time()

    def __enter__(self):
        self._marks = []
        self._first = probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._stretch_start = process_time()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = process_time()
        signal.signal(signal.SIGALRM, self._previous)
        marks = self._marks + [(self._stretch_start, end, probe())]
        probes = [self._first] + [seconds for _, _, seconds in marks]
        # stretch k lies between probes k and k + 1; one slow probe (an
        # interrupt, a page fault) must not rescale a whole stretch
        for k, (start, stop, _) in enumerate(marks):
            around = probes[max(0, k - 1):k + 3]
            self.cpu_s += stop - start
            self.scaled_s += rescale(stop - start, statistics.median(around))
        self.probes += len(probes)
        self.probe_s += sum(probes[1:-1])
        return False
