"""The machine's speed at the moment, from a fixed pure-Python loop.

On a shared virtual machine the speed of a core drifts by up to 20% over
tens of seconds, as other tenants come and go; two runs of the same code a
minute apart can differ by that much.  So the benchmark times this loop,
which shares no code with mops, next to every job, and reports each job
time rescaled to a machine on which the loop takes
``REF_S`` seconds:

    scaled = measured * REF_S / (median loop time over the same pass)

A change to mops moves the measured time and leaves the loop alone, so the
scaled time moves by the same share; a slow spell of the machine moves
both and cancels.  ``run.py`` prints the unscaled figures too.

The loop does what mops's exact arithmetic does most, Fraction and big
integer arithmetic with gcds, and runs with the garbage collector off, so
that neither the heap the jobs left behind nor the library's collector
settings change its time.
"""

import gc
import statistics
import time
from fractions import Fraction

# The loop's median time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7) at a quiet time; scaled figures read as seconds there.
REF_S = 0.0095


def _loop():
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i * i + 1, i + 7)
    return total


def sample():
    """Seconds one run of the loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def samples(count):
    return [sample() for _ in range(count)]


def factor(loop_times):
    """The factor that turns times measured next to these loop times into
    seconds on the reference machine."""
    return REF_S / statistics.median(loop_times)
