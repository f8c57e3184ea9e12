"""A fixed calibration load, sampled while the program works.

Other tenants of a shared machine slow its cores by up to about 2x, in
phases from under a second to minutes long, and that slowdown does not
show as stolen time: the process's own CPU time grows with it.  So
while a run sets up and measures, a CPU-time timer interrupts the
program every ``INTERVAL_S`` of user CPU time and runs one slice of a
load that does not depend on the library.  A unit's CPU time, less the
slices', is scaled by ``NOMINAL_S / mean(slices that ran during it)``:
the time on a machine that runs a slice in ``NOMINAL_S``.

A slice has the two shapes of the ring kernel's work: 200 products in
a 10-coefficient ring (Python and numpy call overhead, like the tiny
x-only ring) and 2 products over an 84 084-triple table (a gather, like
the n=3 (2,8) ring).  Slices run between bytecodes of the main thread;
a numpy call in progress finishes first.
"""

import signal
import statistics
from time import thread_time

import numpy

# CPU time of one slice on a calm 2-vCPU Xeon VM (python 3.11, numpy 2.4)
NOMINAL_S = 0.003
INTERVAL_S = 0.1
SMALL_REPS = 200
LARGE_REPS = 2

_rng = numpy.random.default_rng(0)
_SMALL = (_rng.integers(0, 10, (3, 28)), _rng.random(10))
_LARGE = (_rng.integers(0, 1650, (3, 84084)), _rng.random(1650))
_slices = []  # CPU seconds of each slice so far
_handler_s = 0.0  # CPU seconds spent in slices and their bookkeeping


class _Coefficients:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def run_slice(signum=None, frame=None):
    """One slice of the load; also the timer's signal handler."""
    global _handler_s
    start = thread_time()
    (out, a, b), c = _SMALL
    x = _Coefficients(c)
    for _ in range(SMALL_REPS):
        x = _Coefficients(
            numpy.bincount(out, weights=x.c[a] * c[b], minlength=10) * 0.5 + 0.1)
    (out, a, b), c = _LARGE
    y = c
    for _ in range(LARGE_REPS):
        y = numpy.bincount(out, weights=y[a] * c[b], minlength=1650) * 1e-3
    _slices.append(thread_time() - start)
    _handler_s += thread_time() - start


def start():
    signal.signal(signal.SIGVTALRM, run_slice)
    signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)


def program_time(clock=thread_time):
    """CPU seconds by `clock`, less the time spent in slices."""
    return clock() - _handler_s


def slice_count():
    return len(_slices)


def factor(first, last):
    """Scale factor for work during which slices first..last-1 ran.

    Work too short to be interrupted takes the next slice as well.
    """
    window = _slices[first:max(last, first + 1)]
    if not window:
        run_slice()
        window = _slices[first:]
    return NOMINAL_S / statistics.fmean(window)
