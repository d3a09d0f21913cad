"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the speed of a core drifts by tens of percent over
seconds and minutes, and a benchmark run cannot choose when it runs.  The
worker times this kernel between requests and scales each request's wall time
by how slow the kernel ran around it, so the reported times read as if the
host always ran at one reference speed.

The kernel mixes the three kinds of work the workloads do: Python arithmetic
and float formatting, many small NumPy calls, and a few large-array NumPy
calls.  It never imports the package under test, so a change to the package
cannot change it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Reference speed: the scaled times read as on a host where one kernel call
# takes exactly this long.  It is near the kernel's time on a 2-vCPU Xeon
# KVM guest, so scaled times stay close to wall times there.
REFERENCE_S = 0.006

_SMALL = np.linspace(0.01, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 150_000)


def _kernel() -> float:
    total = 0.0
    text = []
    for i in range(1500):
        x = math.exp(-i * 1e-3) * 0.5
        total += x
        if i % 8 == 0:
            text.append(repr(x))
    p = _SMALL
    for _ in range(150):
        g = np.exp(-p)
        p = g / g.sum() + 0.5 * p
        total += float(p.max())
    c = np.cumsum(np.exp(-_LARGE))
    u = np.linspace(0.0, c[-1], _LARGE.size // 4)
    total += float(np.searchsorted(c, u).sum())
    return total + len(text)


def kernel_seconds() -> float:
    """Wall time of one kernel call, now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
