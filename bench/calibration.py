"""Host-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed by up to 1.8x in
stretches of a few seconds, so a raw time says as much about the
neighbours as about the code.  A Sampler times a short fixed slice of the
arithmetic the workloads do (a Fraction sum and a big-integer polynomial
product) every SAMPLE_INTERVAL_S, from a SIGALRM handler, so the samples
fall inside the calls being measured.  A request's time is scaled by
REFERENCE_S over the median slice time during it: seconds on a host that
runs at the reference speed.  The slice uses no zetapoly code, so no
change to the program moves it.

Slices are timed in CPU time, so a slice that waits for a core held by
the program's own workers (the process pool of the defect-2 scans) does
not read as a slow host.  A slice that runs next to those workers on a
sibling hardware thread can still read slow; that bias is the same on
both sides of a comparison unless a change alters how long the program
keeps every core busy.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# median slice time on the reference host: shared 2-core x86-64 Linux VM, Python 3.11.7
REFERENCE_S = 0.0011
SAMPLE_INTERVAL_S = 0.1
# a request shorter than the interval takes the factor of the nearest samples
NEAREST = 3


def slice_seconds() -> float:
    """CPU time of one calibration slice (about a millisecond).

    CPU time, not wall time: a slice that waits for a core the program's
    own workers hold would otherwise read the program's load as host
    slowness.
    """
    begin = time.thread_time()
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(k % 7 - 3, k)
    coeffs = [1]
    for i in range(30):
        t = (i * 37) % 65 - 32
        grown = coeffs + [0, 0]
        for j, c in enumerate(coeffs):
            grown[j + 1] -= t * c
            grown[j + 2] += 257 * c
        coeffs = grown
    return time.thread_time() - begin


class Sampler:
    """Calibration slices on a timer while in a `with` block; main thread only."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, slice seconds)
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.record()
        finally:
            self._busy = False

    def record(self) -> None:
        seconds = slice_seconds()
        self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median slice time in [start, end].

        With fewer than NEAREST slices inside, the NEAREST slices closest to
        the middle of the interval are used instead.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [s for _, s in nearest[:NEAREST]]
        return REFERENCE_S / statistics.median(inside)
