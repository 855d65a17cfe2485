"""Reference kernels that track the machine's speed while a run goes on.

On a shared host the same op can take 30 % longer for several seconds
at a time while other tenants load the machine, and process CPU time
inflates with it (it is contention, not steal).  The benchmark therefore
times a fixed reference kernel between ops and scales each op's wall
time by how fast that kernel ran around it:

    scaled = wall * NOMINAL_S / (mean of the reference times just before
                                 and just after the op)

so a figure reads as the time the op would take while the reference
kernel runs in NOMINAL_S.  The reference kernels use only the standard
library and numpy, never twistlab, so a change to twistlab cannot move
them.  ``scalar`` is a pure-Python float loop (the profile of the
scalar walks); ``array`` is numpy ufuncs over a few thousand elements
(the profile of the ensemble kernels).  Interpreter start-up and imports
track neither, so set-up times are left unscaled.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

NOMINAL_S = {"scalar": 0.5e-3, "array": 0.5e-3}
_SCALAR_ITERS = 3500
_ARRAY_REPEATS = 8


def scalar_kernel() -> float:
    """Seconds for a fixed pure-Python float loop (standard library only)."""
    t0 = time.perf_counter()
    x = 0.1
    for _ in range(_SCALAR_ITERS):
        x = math.sin(x * 3.1) + math.atan2(x, 1.3) - math.fmod(x, 0.7)
    return time.perf_counter() - t0


def _array_kernel():
    import numpy as np

    a = np.linspace(-3.0, 3.0, 3000)

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(_ARRAY_REPEATS):
            b = np.arctan2(-a, np.sin(a * 3.1)) + np.fmod(a, 2.0)
            np.where(b < 0.0, b + 1.0, b)
        return time.perf_counter() - t0

    return run


class Calibrator:
    """Samples one reference kernel over time and scales wall times by it."""

    def __init__(self, kind: str) -> None:
        self.nominal = NOMINAL_S[kind]
        self._kernel = scalar_kernel if kind == "scalar" else _array_kernel()
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(self._kernel())

    def factor(self, t_start: float) -> float:
        """nominal / mean of the reference samples just before and after t_start.

        Samples are taken between ops, so these two bracket the op that
        starts at t_start.  Wider windows tracked the drift less well.
        """
        i = bisect.bisect_right(self.times, t_start)
        return self.nominal / statistics.fmean(self.samples[max(i - 1, 0):i + 1])
