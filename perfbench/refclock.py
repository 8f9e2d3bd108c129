"""Wall time rescaled to a reference speed.

On a 2-core virtual machine shared with other tenants (Python 3.11, numpy
2.4), the speed of one core drifted by up to 1.8x over seconds to minutes as
their load changed, and a run's median wall time moved by 11-20% from one
25- or 30-second window to the next. The drift slows the program and a
fixed reference loop alike (correlation 0.89 between adjacent timings of the
loop and a short HRAHA run), so each timed section is bracketed by the
reference loop and its wall time is rescaled by ``REF_S`` over the mean of
the two reference timings around it. A rescaled second is the wall second of
a machine on which the reference loop takes ``REF_S``; the raw wall times are
reported next to them.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter

REF_S = 0.025


def reference_loop() -> float:
    """Fixed work in the program's mix: small numpy calls between Python
    arithmetic, dict building and attribute lookups."""
    x = np.arange(10, dtype=float)
    total = 0.0
    for i in range(3500):
        y = np.clip(x * 0.5 + i, 0.0, 100.0)
        total += float(np.dot(y, y))
        table = {j: j * 2 for j in range(5)}
        total += table[i % 5]
    return total


class Timer:
    """Times one section at a time, running the reference loop between
    sections. Returns (result, wall seconds, rescaled seconds)."""

    def __init__(self):
        self._last = self._reference()

    @staticmethod
    def _reference() -> float:
        t0 = _clock()
        reference_loop()
        return _clock() - t0

    def __call__(self, fn, *args):
        t0 = _clock()
        result = fn(*args)
        wall = _clock() - t0
        after = self._reference()
        scaled = wall * REF_S / ((self._last + after) / 2)
        self._last = after
        return result, wall, scaled
