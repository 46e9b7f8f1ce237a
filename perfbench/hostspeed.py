"""Host-speed gauge: a fixed computation timed between ops.

The CPU a run gets on a shared host changes speed by as much as half within
seconds (other tenants' load on the same cores and caches), and a run-long
median of op times moves with it.  The gauge times a fixed mix of the work
the program does -- a pure-Python loop of float arithmetic, calls and dict
stores, and numpy passes over a 4097-point grid -- none of it in
``bundleopt``.  An op's time times ``REFERENCE_S`` over the median of the
gauge readings around it is its time at one fixed host speed; a change to
the program moves it as it moves the wall time, while a change of host speed
moves both the op and the gauge.  ``REFERENCE_S`` only sets the scale: two
commits measured with the same gauge compare alike whatever its value.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# gauge time at the reference host speed: about the median reading on a
# shared 2-vCPU x86-64 KVM guest (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.008
_GRID = np.linspace(0.0, 1.0, 4097)


def _python_part(n: int = 20000) -> float:
    acc = 0.0
    seen = {}
    for i in range(n):
        x = 0.25 + (i % 97) * 0.01
        acc += math.sqrt(x) * x - (acc % 3.0) * 1e-3
        if i % 8 == 0:
            seen[i & 127] = acc
    return acc + len(seen)


def _numpy_part(n: int = 120) -> float:
    acc = 0.0
    for k in range(n):
        v = _GRID ** (0.5 + 0.03 * k) - 0.7 * _GRID
        acc += float(v[np.argmax(v * _GRID)])
    return acc


def reading() -> float:
    """Seconds the fixed computation takes now."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def factor(readings) -> float:
    """Multiplier that brings a time taken at the speed of ``readings`` to
    the reference speed."""
    return REFERENCE_S / statistics.median(readings)
