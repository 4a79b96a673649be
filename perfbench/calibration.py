"""Scaling of measured times to a reference machine speed.

On shared virtual machines the speed of the same code changes by a factor
of up to two within seconds, and a state can last a whole run.  So the
benchmark interleaves short calibration slices with the operations it
times, and scales every time by

    NOMINAL_S / (time the calibration slice takes at that moment).

A slice is work of the same kinds mlcs does (a QUADPACK integral of a
Python integrand, building small containers, small numpy calls), mixed so
that it slows down by the same factor as the workloads do, and it uses no
mlcs code, so a change to mlcs moves the scaled times and a change of
machine speed mostly does not.  The raw wall times are kept in the result
records.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy import integrate

_quad = getattr(integrate.quad, "__wrapped__", integrate.quad)  # never the traced wrapper
_ARANGE = np.arange(64.0)

# Seconds one slice takes at the reference speed: the fast state of the
# 2-vCPU shared virtual machine the benchmark was written on (Python 3.11,
# numpy 2.4, scipy 1.17), slices run back to back.
NOMINAL_S = 1.2e-4
EVERY_S = 0.02  # wall time between slices
WINDOW = 5  # slices taken on each side of an operation


def _integrand(x):
    return math.exp(-x) * x ** 0.3 * math.log1p(x)


def slice_seconds():
    t0 = perf_counter()
    _quad(_integrand, 0.0, 30.0, epsabs=0.0, epsrel=1e-12, limit=200)
    table = {i: (i, float(i), str(i)) for i in range(100)}
    kept = [v for v in table.values() if v[0] % 3]
    s = float(len(kept))
    for _ in range(10):
        s += float(np.dot(_ARANGE, np.sqrt(_ARANGE)))
    return perf_counter() - t0


class SpeedLog:
    """Calibration slices taken between operations, at most every EVERY_S."""

    def __init__(self):
        self.at = []  # perf_counter() when each slice ended
        self.took = []
        self._last = -math.inf

    def tick(self, force=False):
        """Take slices when EVERY_S has passed: one per EVERY_S elapsed, at
        most WINDOW, so a long operation is bracketed by WINDOW slices."""
        now = perf_counter()
        due = WINDOW if force else min(WINDOW, int((now - self._last) / EVERY_S))
        for _ in range(due):
            took = slice_seconds()
            self._last = perf_counter()
            self.at.append(self._last)
            self.took.append(took)

    def scale(self, starts):
        """NOMINAL_S over the median time of the WINDOW slices before and the
        WINDOW slices after each start; no slice runs inside an operation."""
        took = np.asarray(self.took)
        by_gap = np.array([NOMINAL_S / np.median(took[max(0, j - WINDOW):j + WINDOW])
                           for j in range(len(took) + 1)])
        return by_gap[np.searchsorted(np.asarray(self.at), np.asarray(starts), side="right")]
