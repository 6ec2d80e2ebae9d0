"""The machine's speed, measured with a fixed kernel, for scaling the benchmark's times.

On a small shared machine each CPU runs the same pure-Python code at one speed for a
few seconds and then at another, up to half again as slow, following the load other
tenants put on it; every time measured in that spell moves with it.  The benchmark
pins its processes to one CPU (run.py), times `kernel()` on that CPU between ops, and
divides the time of each op shorter than LONG_OP_S by the slowdown measured next to
it: the kernel's median time there over KERNEL_REF_S, its time on the machine the
benchmark was written on in its slower and more common state.

The kernel shares no code with the program, so a change to the program does not change
its time, and it runs with the garbage collector off, so the size of the program's heap
does not change it either.  It tracks most, not all, of a change of speed: in a slow
spell it slows by up to a tenth more or less than the program's code does.
"""

import bisect
import gc
import math
import statistics
import time

KERNEL_REF_S = 0.0025
# A sample is taken between ops once this much time has passed since the last one.
SAMPLE_EVERY_S = 0.05
# An op's slowdown is the median of the samples taken within this time of it.
WINDOW_S = 0.2
# An op longer than this spans several spells of speed, which average out within it,
# and no sample is taken during it: it is left as measured.  (The criterion-8 anchor of
# the reduce workload took 9.2-10.2 s in eight runs while the kernel's time around it
# varied 1.7-fold; scaled by those samples, it varied far more.  Ops of a second or
# two, such as the largest module builds, do not average out and are scaled.)
LONG_OP_S = 5.0


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def mul(self, other):
        out = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                k = e + f
                out[k] = out.get(k, 0) + c * d
        return _Poly(out)


def kernel():
    """Fixed work in the style of the program: products of Laurent-polynomial-like
    objects, held as dictionaries from exponent tuples to big integers, and gcds."""
    big = 1234567891011
    p = _Poly({(i, -i): i * big + 1 for i in range(-4, 5)})
    q = _Poly({(i, 1): i * i * big - 1 for i in range(-3, 4)})
    n = 0
    for _ in range(75):
        r = p.mul(q)
        n += len(r.terms) + math.gcd(*r.terms.values())
    return n


def sample(repeats=1):
    """The kernel's median time over `repeats` runs, in seconds.  The garbage collector
    is off meanwhile: the kernel's objects die before it returns, so it neither starts
    a collection of the program's heap nor leaves one due."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Kernel samples taken between the ops of a round, with their times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at = []
        self.kernel_s = []

    def take(self):
        self.kernel_s.append(sample())
        self.at.append(self.clock())

    def maybe_take(self):
        if not self.at or self.clock() - self.at[-1] >= SAMPLE_EVERY_S:
            self.take()

    def slowdowns(self, spans):
        """The slowdown for each (start, end) span: the median of the samples within
        WINDOW_S of it, or of the nearest sample before and after it if none is; 1 for
        a span longer than LONG_OP_S."""
        out = []
        for start, end in spans:
            if end - start > LONG_OP_S:
                out.append(1.0)
                continue
            lo = bisect.bisect_left(self.at, start - WINDOW_S)
            hi = bisect.bisect_right(self.at, end + WINDOW_S)
            near = self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1):lo + 1]
            out.append(statistics.median(near) / KERNEL_REF_S)
        return out
