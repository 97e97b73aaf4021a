"""Wall time corrected for the speed the shared machine gives this process.

On a machine shared with other tenants the same work can take twice as long
from one minute to the next, and process CPU time rises with it.  A
``RefClock`` therefore cuts a pass into stretches of about a second (at the
next call boundary after CALIBRATION_GAP_S), times a short fixed
calibration kernel on the same core between stretches, and converts each
stretch to reference seconds:

    reference seconds = wall seconds * REFERENCE_KERNEL_S
                        / mean(kernel time before, kernel time after)

The kernels themselves are not counted.  A reference second is a wall
second on a machine where the kernel takes REFERENCE_KERNEL_S.  A single
call longer than the gap, such as ``maximal_cycles`` on 4x4, is corrected
only by the kernels around it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

REFERENCE_KERNEL_S = 0.035
CALIBRATION_GAP_S = 1.0


@functools.lru_cache(maxsize=1)
def _working_set():
    """A 16 MB array and a 100k-entry dict: far beyond the per-core cache,
    so the kernel slows, like the workloads, when other tenants crowd the
    shared cache and memory (a cache-resident kernel slowed far less)."""
    rng = np.random.default_rng(0)
    return (rng.random(2_000_000), rng.integers(0, 2_000_000, 200_000),
            {i * 7919: i for i in range(100_000)},
            [int(k) * 7919 for k in rng.integers(0, 100_000, 60_000)])


def _kernel():
    array, index, table, keys = _working_set()
    total = float(array[index].sum())
    for k in keys:
        total += table[k]
    return total


def calibrate():
    """Wall seconds of the fixed calibration kernel, measured now."""
    _working_set()
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    return time.perf_counter() - t0


class RefClock:
    """Accumulates reference seconds between ``start`` and ``stop``.

    ``tick`` may be called as often as convenient: it calibrates only when
    at least CALIBRATION_GAP_S of work has passed since the last kernel.
    """

    def __init__(self):
        self.reference_s = 0.0
        self.wall_s = 0.0
        self.kernels = []
        self._open = None

    def start(self):
        self.kernels.append(calibrate())
        self._open = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._open >= CALIBRATION_GAP_S:
            self._close()

    def stop(self):
        self._close()
        self._open = None
        return self.reference_s

    def _close(self):
        stretch = time.perf_counter() - self._open
        self.kernels.append(calibrate())
        speed = REFERENCE_KERNEL_S / (0.5 * (self.kernels[-2]
                                             + self.kernels[-1]))
        self.reference_s += stretch * speed
        self.wall_s += stretch
        self._open = time.perf_counter()

    @property
    def speed(self):
        """Reference seconds per wall second over everything timed."""
        return self.reference_s / self.wall_s if self.wall_s > 0 else 1.0

