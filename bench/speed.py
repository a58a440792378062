"""Machine-speed probe: a fixed kernel that runs no farfield code.

The machines this benchmark runs on are shared, and their speed drifts by
10 to 20 % over seconds and minutes, for sparse factorization, array
arithmetic and interpreted Python alike (CPU time drifts with wall time, so
the cause is not preemption).  The benchmark times this kernel between calls
and scales each call's wall time by ``REF_S`` over the kernel's time around
the call: the result is the wall time the call would have taken with the
machine as fast as when ``REF_S`` was measured.

Over ten 25-second runs per workload on a 2-core Xeon sandbox, the spread
(interquartile range over median) of job_s_p50, job_s_tail and jobs_per_s
was 0.12 to 0.22 unscaled and 0.03 to 0.08 scaled.  The one exception is
job_s_p50 on sweep-trials, 0.12 unscaled and 0.14 scaled, which the seed's
share of slow trials sets.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import quad
from scipy.sparse import diags
from scipy.sparse.linalg import splu

# median probe time between calls of benchmark runs on the machine the first
# baseline was recorded on (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1); a probe in a fresh loop, with warm caches, takes 3.1 ms
REF_S = 0.0047


class SpeedProbe:
    """Call to time the kernel: the median of three runs of one unit.

    A unit is the work the jobs are made of: a sparse LU factorization,
    array arithmetic, adaptive quadrature of a Python callable and an
    interpreted loop, about 5 ms in all.
    """

    def __init__(self, n: int = 32):
        self._a = diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n],
                        shape=(n * n, n * n)).tocsc()
        self._x = np.linspace(0.0, 1.0, 20_000)

    def _unit(self) -> float:
        t0 = time.perf_counter()
        splu(self._a)
        for _ in range(3):
            np.sin(self._x) * np.sqrt(self._x + 1.0)
        quad(lambda s: math.sin(s) ** 2, 0.0, 30.0, limit=200)
        acc = 0
        for i in range(5_000):
            acc += i * i
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self._unit() for _ in range(3))
