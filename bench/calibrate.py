"""Scales wall times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load, by up to a factor of two over seconds to
minutes.  The drift slows every piece of code alike, so the benchmark
times a fixed reference kernel between requests and reports each
request's wall time scaled by ``REFERENCE_S / (kernel time nearby)``:
the time the request would take on a host that runs the kernel in
``REFERENCE_S``.  The kernel is exact rational Gauss-Jordan elimination,
the kind of work the package does, written here so that no change to
the package can change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.025  # the kernel's time at reference speed
KERNEL_N = 16
NEIGHBOURS = 3  # kernel timings each side of a request that set its scale


def kernel() -> Fraction:
    """Solve a fixed 16 x 16 rational system (Hilbert plus identity)."""
    n = KERNEL_N
    rows = [
        [Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = rows[c]
        pivot = [v / pivot[c] for v in pivot]
        rows[c] = pivot
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], pivot)]
    return rows[0][-1]


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(walls: list[float], kernels: list[float]) -> list[float]:
    """Scale ``walls[i]``, timed between ``kernels[i]`` and ``kernels[i + 1]``,
    by the median kernel time of its neighbourhood."""
    assert len(kernels) == len(walls) + 1
    return [
        wall
        * REFERENCE_S
        / statistics.median(kernels[max(0, i + 1 - NEIGHBOURS) : i + 1 + NEIGHBOURS])
        for i, wall in enumerate(walls)
    ]
