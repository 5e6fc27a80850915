"""Host-speed calibration.

On the shared 2-core host this benchmark was built on, the speed of one
core drifts by up to +-30% over tens of seconds: identical search passes
took 1.9 to 3.7 s, with no steal time and CPU time equal to wall time.
No wall-clock metric repeats within 10% there.  So while the benchmark
times the program, a timer interrupts it every INTERVAL seconds and times
a fixed exact-arithmetic kernel (`kernel` below, a frozen imitation of
Q(sqrt3) ring operations that shares no code with the program).  Each
stretch of program time is divided by the kernel time measured at its end
and multiplied by REFERENCE_S: the result is the time the work would take
on a host where the kernel takes REFERENCE_S.  A faster program lowers
this number; a slower or faster host does not move it.  Time spent in the
kernel itself is excluded.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.01  # a 50 ms interval tracked the drift half as well
REFERENCE_S = 300e-6  # about the kernel's time on a quiet core of the build host

clock = time.perf_counter
_gcd = math.gcd


class _Q:
    __slots__ = ("a", "b", "d")


def _make(a, b, d):
    g = _gcd(_gcd(abs(a), abs(b)), d)
    q = object.__new__(_Q)
    object.__setattr__(q, "a", a // g)
    object.__setattr__(q, "b", b // g)
    object.__setattr__(q, "d", d // g)
    return q


def _add(x, y):
    return _make(x.a * y.d + y.a * x.d, x.b * y.d + y.b * x.d, x.d * y.d)


def _mul(x, y):
    return _make(x.a * y.a + 3 * x.b * y.b, x.a * y.b + x.b * y.a, x.d * y.d)


_VALUES = [_make(3 * 7**k + 1, 5 * 7 ** (k // 2) - 2, 2 * 7**k) for k in range(1, 9)]


def kernel(rounds=60):
    """Fixed work: Q(sqrt3)-style products and sums of 7-adic fractions."""
    for i in range(rounds):
        x, y = _VALUES[i % 8], _VALUES[(3 * i + 1) % 8]
        _add(_add(_mul(x, y), _mul(y, x)), x)


class Speedometer:
    """Samples the kernel while the program runs (SIGALRM, main thread).

    Use as a context manager around the timed work; `reference_s(a, b)`
    converts the program time between clock readings a and b."""

    def __init__(self):
        self.samples = []  # (kernel start, kernel seconds, kernel end)
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        try:
            t0 = clock()
            kernel()
            t1 = clock()
            self.samples.append((t0, t1 - t0, t1))
        finally:
            self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def reference_s(self, a, b):
        """Program time between a and b, at the reference host speed."""
        total, start = 0.0, a
        for k0, seconds, k1 in self.samples:
            if k1 <= start:
                continue
            if k0 >= b:
                total += (b - start) / seconds
                start = b
                break
            total += max(0.0, k0 - start) / seconds
            start = k1
        if start < b:  # after the last sample: its speed still applies
            total += (b - start) / self.samples[-1][1]
        return total * REFERENCE_S

    def speed(self):
        """Host speed relative to the reference (1.0 = reference)."""
        return REFERENCE_S / statistics.median(s for _, s, _ in self.samples)
