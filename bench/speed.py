"""Machine-speed probe for the benchmark's operation times.

The machine the benchmark was built on shares its cores with other
tenants, and its speed drifts by up to 40% within a minute, switching
between fast and slow phases within seconds. A ``Probe`` times a fixed
~0.6 ms kernel ``BETWEEN`` times between two operations, never while one
runs, so the yardstick stays out of the program's process state. An
operation's wall time, multiplied by ``REF_S`` over the mean kernel time
before and after it raised to ``EXPONENT``, is the time the operation
would take on a machine that runs the kernel in ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.0006          # reference time of one kernel run
BETWEEN = 8             # kernel runs between two operations
# The program's time grows as about this power of the kernel's from one
# machine phase to another: fitting log(op wall time) on log(kernel time)
# over one instance repeated 30 to 50 times gave slopes 0.60
# (homology_surfaces), 0.80 (persist_cooling) and 0.64 (gauge_cover).
# Over ten recorded 40-operation runs per workload, 0.8 gave the smallest
# largest run-to-run spread of the three operation time metrics (5.0%,
# against 6.2% at 0.7 and 5.8% at 0.9). With an exponent of 1 a fast
# phase is over-corrected.
EXPONENT = 0.8
# Spawning an interpreter and importing descell and numpy slows less in a
# slow phase: its log wall time against log kernel time had slopes of
# 0.38 and 0.47 over 40 and 50 spawns, and 0.33 over the median spawn
# times and kernel times of 60 recorded runs.
SETUP_EXPONENT = 0.4


def kernel() -> int:
    """Fixed interpreter-bound work shaped like the program's: string-keyed
    dicts, sorting, set symmetric differences, XOR of small numpy rows."""
    table = {f"c{i * 7919 % 10007:05d}": (i % 3, i * 31 % 97) for i in range(300)}
    acc: set[str] = set()
    for key in sorted(table, key=table.__getitem__):
        acc ^= {key[:4]}
    mat = np.zeros((12, 60), dtype=np.uint8)
    mat[np.arange(12), (np.arange(12) * 7) % 60] = 1
    for col in range(12):
        for row in range(12):
            if mat[row, col]:
                mat[row] ^= mat[col]
    return len(acc)


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Probe:
    """Kernel samples between operations."""

    def __init__(self):
        self._before = self.settle()
        self.history: list[float] = list(self._before)

    @staticmethod
    def settle() -> list[float]:
        return [_time_kernel() for _ in range(BETWEEN)]

    def scale(self, exponent: float = EXPONENT) -> float:
        """After an operation: the factor from its wall time to reference
        seconds. Takes the samples that follow the operation, which also
        serve as the next operation's samples before it."""
        after = self.settle()
        samples = self._before + after
        self._before = after
        self.history.extend(after)
        # Averaging kernel speeds (1 / k) instead of times over-corrects
        # fast phases further: on gauge_cover it doubled the spread between
        # runs that averaging kernel times leaves.
        return (REF_S / statistics.fmean(samples)) ** exponent
