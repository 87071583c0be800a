"""Machine-speed reference for the end-to-end timings.

On a 2-core x86-64 host shared with other jobs, the speed of a
single-threaded numpy loop drifted by 25% and more over tens of seconds,
in CPU time as well as in wall time.  Every timed operation is therefore
followed by a fixed reference kernel built from the same libraries the
program spends its time in (an OpenBLAS GEMM, a scipy.fft transform and a
vectorised exp).  A duration is reported rescaled to the speed at which
that kernel takes ``REFERENCE_MS``:

    reported = measured * REFERENCE_MS / median kernel time around the operation

On that host the rescaling cut the round-to-round spread (interquartile
range over median) of the train-tfconv step time from 0.25 to 0.04.  The
kernel never calls tfnet, so a change to the program cannot move it; the
unscaled wall times and kernel times go into each result's environment.
"""

import statistics
import time

import numpy as np
import scipy.fft

REFERENCE_MS = 3.0
WINDOW_S = 2.0   # kernel runs this close to an operation describe its speed


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((320, 320))
        self._x = rng.standard_normal((32, 4096))
        self._e = rng.standard_normal(300_000)
        self.samples = []   # (end time, seconds) of each kernel run

    def measure(self, repeats=1):
        """Run the reference kernel ``repeats`` times and keep each timing."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._a @ self._a
            scipy.fft.fft(self._x)
            np.exp(self._e)
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def kernel_seconds(self, start, end):
        """Median kernel time from ``WINDOW_S`` before [start, end] to ``WINDOW_S`` after.

        An operation is always followed by at least one kernel run, so the
        window is never empty.
        """
        return statistics.median(
            s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S)

    def rescale(self, start, end):
        """Duration of the operation in [start, end] at reference speed."""
        return (end - start) * REFERENCE_MS / (1e3 * self.kernel_seconds(start, end))
