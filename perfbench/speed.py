"""Machine-speed calibration of a run's timings.

On a shared machine the same pass can run 20-40% slower for minutes at a
time, in CPU time as much as in wall time, so the cause is contention
from other tenants, not descheduling.  Before every pass, a run therefore
times a fixed kernel that does not use monofem: a Python loop plus numpy
gather/scatter over a CSR-like pattern, the two kinds of work the
workloads do.  Reported times are scaled by ``REFERENCE_S`` over the
kernel's median time in the run, i.e. given at the reference speed.

Over ten 30 s runs per workload on a 2-vCPU VM, the scaling cut the
spread of the median pass time (quartile distance over median) from 0.20
to 0.03 on ``ladder_ms``, 0.11 to 0.05 on ``sweep_h`` and 0.12 to 0.07 on
``fine_mesh``; on ``sweep_dt`` it stayed at 0.10.  The kernel tracks the
interpreter-heavy workloads more closely than the bandwidth-heavy ones.
"""
import statistics
import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon VM (numpy 2.4, OpenBLAS 0.3.31)
# in a quiet period.  It only fixes the unit; any constant would do.
REFERENCE_S = 0.025

_N = 20000


def _kernel(rows, cols, vals, x):
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    for _ in range(30):
        np.bincount(rows, weights=vals * x[cols], minlength=_N)
    return s


class Calibration:
    def __init__(self):
        self.samples = []

    def sample(self):
        # Built afresh and freed each time, so that the kernel's arrays do
        # not add to the peak RSS of the passes.
        args = (np.repeat(np.arange(_N), 7), np.arange(7 * _N) * 7919 % _N,
                np.linspace(0.0, 1.0, 7 * _N), np.linspace(1.0, 2.0, _N))
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel(*args)
            self.samples.append(time.perf_counter() - t0)

    def factor(self):
        """Reference speed over this run's speed: multiply times by it."""
        return REFERENCE_S / statistics.median(self.samples)


def scale(metrics, units, factor):
    """Metrics with times (s, ms) multiplied and rates (GB/s) divided by factor."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if value is not None and unit in ("s", "ms"):
            value *= factor
        elif value is not None and unit == "GB/s":
            value /= factor
        out[name] = value
    return out
