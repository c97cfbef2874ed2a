"""Reference work that measures how fast the host runs while work is timed.

The reference machine is a shared VM whose speed swings by up to 2x, both
from one second to the next and over spells of minutes, with CPU time
inflating along with wall time.  To take that out of the time metrics,
every timed child runs a :class:`Sampler`: a wall-clock interval timer that
interrupts the child's own work every few milliseconds to time
:func:`sample`, a fixed piece of pure-Python rational arithmetic in the
style of the engine's inner loop.  The samples are spread evenly over the
time the work runs, in the process that runs it.  :func:`speed` turns the
samples of one run into a factor that scales the run's times to the speed
at which one sample takes ``REFERENCE_S``.  The package under test never
runs this code, so a change to the package moves the scaled times exactly
as it moves the raw ones.

Speed is close to bimodal at the scale of one sample, so the factor uses
the mean of the samples, not their median: a median jumps between the modes
when about half the samples are fast.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

# mean seconds of one sample on the reference machine (2-vCPU Xeon VM,
# Python 3.11), inside a child that has imported gwlocal
REFERENCE_S = 0.002

# a child reports its samples on standard error in lines that start with
# this; the runner removes them
MARKER = "perfbench-calibration "

_WEIGHTS = tuple(Fraction(k * k + 3, 2 * k + 5) for k in range(7))


def sample() -> float:
    """Wall seconds of one fixed unit of reference work."""
    start = time.perf_counter()
    acc = Fraction(1)
    for rep in range(6):
        for i, wi in enumerate(_WEIGHTS):
            tangent = Fraction(1)
            for j, wj in enumerate(_WEIGHTS):
                if i != j:
                    tangent *= wi - wj
            acc = acc * tangent**2 / (wi + rep + 1)
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User+system CPU of this process and of the children it has waited for
    (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Sampler:
    """Takes one sample every ``interval`` wall seconds while active (a
    context manager), and keeps the wall and CPU seconds the samples cost so
    that the runner can take them out of the child's own times.  An
    interval of 0 takes no samples.

    A pool worker never returns to report, so with ``stream`` each sample
    is reported as it is taken.  Its wall time is reported as 0: it runs
    beside the other workers, so it cannot be taken out of the pass's wall
    time, only out of its CPU time."""

    def __init__(self, interval: float, stream: bool = False):
        self.interval = interval
        self.stream = stream
        self.samples = []
        self.wall = self.cpu = 0.0

    def _tick(self, _signum, _frame):
        start, cpu = time.perf_counter(), cpu_seconds()
        seconds = sample()
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
        if self.stream:
            _emit([seconds], 0.0, cpu)
        else:
            self.samples.append(seconds)
            self.wall += wall
            self.cpu += cpu

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self):
        """Write the samples to standard error, as the runner expects them."""
        if self.samples:
            _emit(self.samples, self.wall, self.cpu)


def _emit(samples, wall, cpu):
    # one write per line, so that lines from several workers never mix
    record = {"samples": samples, "wall": wall, "cpu": cpu}
    sys.stderr.flush()
    os.write(sys.stderr.fileno(), (MARKER + json.dumps(record) + "\n").encode())


def speed(seconds) -> float:
    """Factor that scales times measured beside ``seconds`` (samples) to the
    reference speed."""
    return REFERENCE_S * len(seconds) / sum(seconds)
