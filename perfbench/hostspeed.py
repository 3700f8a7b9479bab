"""Host-speed calibration: express times as they would read on a reference host.

On a shared 2-CPU virtual machine the same cold predict takes anywhere from
0.7x to 1.3x its median, in phases that last from seconds to minutes, so
raw times of identical code differ by about 25% between runs however long
each run measures.  A calibrator with the program's dominant instruction mix
— scipy's MINPACK Levenberg-Marquardt driving a Python residual callback —
slows down with the host in step: timed right before and after each unit of
program work, the window medians of (program time / calibrator time) stayed
within 2% over 90 s while the raw times moved by 20%.

The calibrator never runs program code, so no change to the program can move
it, and it only runs while the program is idle (between rows, passes,
requests and traffic cycles), so it never competes with the work it
normalises.  A unit of work that took ``t`` seconds between calibrator
samples ``a`` and ``b`` is reported as ``t * REFERENCE_S / ((a + b) / 2)``;
the report also prints every raw value.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import least_squares

#: Median calibrator time on the reference host (2 vCPUs, Python 3.11,
#: numpy 2.4, scipy 1.17).
REFERENCE_S = 0.065

_X = np.arange(1.0, 13.0)
_Y = (2.0 + 0.5 * _X) / (1.0 + 0.1 * _X + 0.01 * _X * _X)


def _residuals(p: np.ndarray) -> np.ndarray:
    return (p[0] + p[1] * _X) / (1.0 + p[2] * _X + p[3] * _X * _X) - _Y


def _calibrate() -> float:
    started = time.perf_counter()
    for start in range(40):
        least_squares(_residuals, [1.0 + 0.01 * start, 1.0, 0.0, 0.0], method="lm")
    return time.perf_counter() - started


class HostSpeed:
    """The calibrator samples of one run."""

    def __init__(self) -> None:
        _calibrate()  # the first call pays for lazy imports and warm-up
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, n: int = 2) -> float:
        """Run the calibrator ``n`` times; returns their mean."""
        batch = [_calibrate() for _ in range(n)]
        self.samples.extend(batch)
        self._last = sum(batch) / n
        return self._last

    def factor(self) -> float:
        """Sample again; a time measured since the previous sample, times this,
        is the time at reference speed."""
        before = self._last
        return REFERENCE_S / ((before + self.sample()) / 2.0)

    @property
    def overall(self) -> float:
        """The run's host speed relative to the reference host."""
        return REFERENCE_S / statistics.median(self.samples)
