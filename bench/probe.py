"""Host-speed probe: a fixed piece of work timed around every operation.

The host this benchmark was written on (2 shared vCPUs) changes speed by
up to 1.5x over tens of seconds to minutes for identical work, so raw
wall times of the same code drift from run to run by more than any
useful bound. The benchmark pins itself and its children to one vCPU
and, just before and just after each operation, times a small fixed
workload on that vCPU: an interpreter loop, small LAPACK solves and a
vectorized power/exp, the kinds of work the package does. No change to
the package can alter it. Times are reported rescaled to a host on
which a probe sample takes ``NOMINAL_S``, the median on that host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.03
SAMPLES = 3

_A = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) / 16.0
_B = np.ones(4)
_V = np.linspace(-3.0, 3.0, 100_000)


def _work() -> int:
    x = 0
    for i in range(60_000):
        x += (i * i) % 7
    for _ in range(900):
        np.linalg.solve(_A, _B)
    for _ in range(12):
        np.exp(-np.abs(_V) ** 0.64).sum()
    return x


def probe_s() -> float:
    """Median wall time of SAMPLES runs of the fixed work."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, probes) -> float:
    """``seconds`` of wall time at nominal host speed, given the probes around it."""
    return seconds * NOMINAL_S / statistics.mean(probes)
