"""Wall time scaled to a reference processor speed.

The machines this benchmark runs on share their cores: the same session can
take twice as long a minute later because a neighbour got busy, in phases
lasting seconds to tens of seconds.  A fixed calibration kernel, exact
sparse polynomial arithmetic in plain Python like the program's own inner
loops, is timed just before and just after each measured interval.  The
interval is scaled by REFERENCE_KERNEL_MS / (mean kernel time), which
removes most of the machine's speed changes and leaves the program's.

The kernel is independent of weilreg, so no change to the program moves it.
"""

import itertools
import statistics
import time
from fractions import Fraction

# The kernel's time on the machine the benchmark was defined on (2 shared
# cores, CPython 3.11, quiet phase), so scaled times read close to wall times
# there.  Changing it rescales every time metric: never change it between
# the two sides of a comparison.
REFERENCE_KERNEL_MS = 1.8


def _poly(degree, a, b):
    exps = (e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) <= degree)
    return {e: Fraction(a * i + 1, b * i + 3) for i, e in enumerate(exps)}


_P = _poly(3, 1, 2)
_Q = _poly(2, 3, 1)


def _kernel():
    out = {}
    for e1, c1 in _P.items():
        for e2, c2 in _Q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def kernel_ms():
    """Median of three timed kernel runs, in milliseconds."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


class ReferenceClock:
    """Scales consecutive measured intervals to the reference speed."""

    def __init__(self):
        self.last = kernel_ms()

    def factor(self):
        """Scale factor for the interval that just ended (since the last call)."""
        now = kernel_ms()
        factor = REFERENCE_KERNEL_MS / ((self.last + now) / 2)
        self.last = now
        return factor
