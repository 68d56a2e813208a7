"""Machine-speed calibration for the benchmark's times.

On a shared host the speed of one core drifts by tens of percent over
minutes.  The benchmark therefore runs a fixed kernel at regular
intervals during every measurement and reports each time in reference
seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel time

applied piece by piece: each stretch between two kernel runs is scaled
by the kernel times measured just before it, so a time is what it would
be on a host where the kernel always takes ``REFERENCE_S``.

The kernel is a frozen imitation of qmod's hot paths (61-bit modular
multiply-adds, and row reduction through field-object method calls and
list comprehensions); it does not call qmod, so a change to qmod cannot
move it.  qmod's own time still swings somewhat more than the kernel's,
so the correction removes most, not all, of the drift.  Raw seconds and
the factors are kept in the results file.
"""

import signal
import time

P = (1 << 61) - 1
# About the kernel's time on the 2-vCPU sandbox the benchmark was written
# on (Python 3.11), so that reference seconds are close to seconds there.
REFERENCE_S = 0.00105
INTERVAL_S = 0.1


class _Field:
    def mul(self, a, b):
        return a * b % P

    def sub(self, a, b):
        return (a - b) % P

    def is_zero(self, a):
        return a % P == 0

    def inv(self, a):
        return pow(a, P - 2, P)


_F = _Field()
_ROWS = [[(i * 7919 + j * 104729 + 1) * 2654435761 % P for j in range(9)] for i in range(8)]


def kernel() -> int:
    x = 12345
    for i in range(2_500):
        x = (x * 6364136223846793005 + i) % P
    F = _F
    m = [list(r) for r in _ROWS]
    for c in range(8):
        inv = F.inv(m[c][c])
        m[c] = [F.mul(inv, v) for v in m[c]]
        for i in range(8):
            if i != c and not F.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(m[i], m[c])]
    return x ^ m[7][8]


def factor(samples) -> float:
    """Multiplier from measured to reference seconds next to ``samples``."""
    return REFERENCE_S * len(samples) / sum(samples)


class Sampler:
    """Runs the kernel every ``interval`` seconds from SIGALRM while active.

    ``clock()`` reads reference seconds: the time since the last kernel run
    is scaled by the mean of the last ``SMOOTHING`` kernel times, and the
    kernel's own time is left out.
    """

    SMOOTHING = 3

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.ref = 0.0  # reference seconds up to the last kernel run
        self.raw = 0.0  # the same stretch in measured seconds
        self._mark = None
        self._scale = 1.0
        self._previous = None

    def clock(self) -> float:
        return self.ref + (time.perf_counter() - self._mark) * self._scale

    def _take(self, *_):
        t0 = time.perf_counter()
        if self._mark is not None:
            self.ref += (t0 - self._mark) * self._scale
            self.raw += t0 - self._mark
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._scale = factor(self.samples[-self.SMOOTHING:])
        self._mark = t1

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def factor(self) -> float:
        """Reference seconds per measured second over the whole activity."""
        return self.ref / self.raw
