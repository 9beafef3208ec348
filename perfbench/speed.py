"""Host speed over a run, from a fixed kernel timed on a timer signal.

On a shared host a core's speed drifts by up to 2x, in phases of seconds to
minutes, so plain wall times of the same work spread widely from run to run.
A ``SpeedProbe`` runs a small kernel that does not touch qflow every
``PERIOD_S`` seconds of wall time, on the main thread between two bytecodes
of the measured code, and records how long each run of the kernel took.
The kernel slows with the core, so

    normalized(t0, t1) = work(t0, t1) * ref_s / mean kernel time in [t0, t1]

reads about the same for the same work whatever the drift.  It is the time
the work would take on a core where the kernel takes ``ref_s``.  ``work``
is the wall time of the interval less the kernel's own time in it.

Two kernels: ``"numpy"`` (arithmetic on 100-element arrays, like the radial
and splitting inner loops) times the experiments, and ``"python"`` (plain
integer arithmetic) times the set-up, which runs before numpy is imported
and is mostly module execution.  Each tracks the code it times: over ten
seeds per workload on a 2-vCPU VM, plain round times spread by 0.11-0.18
(quartile distance over median) and normalized ones by 0.02-0.09; plain
set-up times by 0.26 and normalized ones by 0.05-0.08.
"""

import signal
import time
from array import array
from bisect import bisect_left

# timer period; each kernel takes 0.1-0.3 ms, 1-3% of a period
PERIOD_S = 0.01
# reference kernel times: each kernel's median on a 2-vCPU Xeon VM (python
# 3.11, numpy 2.4), so normalized times read like wall times there
REF_S = {"numpy": 2e-4, "python": 1.6e-4}


def _python_kernel():
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


def _numpy_kernel():
    import numpy

    x = numpy.linspace(0.0, 1.0, 100)

    def kernel():
        s = 0.0
        for _ in range(40):
            s += float((x * x + 1.0).sum())
        return s

    return kernel


class SpeedProbe:
    """Times a kernel on SIGALRM while used as a context manager."""

    def __init__(self, kernel):
        self.ref_s = REF_S[kernel]
        self._kernel = _numpy_kernel() if kernel == "numpy" else _python_kernel
        self.start = array("d")
        self.took = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._kernel()
        self.start.append(t)
        self.took.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, t0, t1):
        return normalized(self.start, self.took, t0, t1, self.ref_s)


def normalized(start, took, t0, t1, ref_s):
    """Normalized time of [t0, t1] from kernel runs listed by start.

    None when no kernel run starts in the interval, which can happen only
    if it is shorter than about one timer period.  The handler runs on the
    thread that reads the clock, so a kernel run that starts inside the
    interval also ends inside it.
    """
    inside = took[bisect_left(start, t0):bisect_left(start, t1)]
    if not inside:
        return None
    kernel_s = sum(inside)
    return (t1 - t0 - kernel_s) * ref_s * len(inside) / kernel_s
