"""Wall time scaled to a reference machine speed.

The benchmark runs on shared machines whose speed moves by tens of
percent over seconds as other tenants load them, which swamps the
differences it has to resolve.  A :class:`ScaledClock` therefore runs a
fixed calibration kernel, which does not use varbreak, next to what it
measures and reports

    scaled = wall * reference_s / calibration

where ``calibration`` is the mean kernel time just before and just
after the measurement.  At the reference speed a scaled time equals the
wall time, and the wall times are kept too.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Kernel times at the reference speed: that of the machine the baseline
#: in ``baseline.json`` was recorded on (2-core Xeon under KVM, Python
#: 3.11, NumPy 2.4) when no other tenant loaded it.
INTERPRETER_REFERENCE_S = 0.005
SPAWN_REFERENCE_S = 0.1

_DESIGN = np.vander(np.linspace(0.0, 1.0, 100), 4)


def interpreter_kernel() -> float:
    """Seconds for a fixed mix of small NumPy calls and an interpreted loop."""
    start = perf_counter()
    for i in range(150):
        rng = np.random.Generator(np.random.Philox(key=np.array([i, 7], dtype=np.uint64)))
        u = rng.random(100)
        y = np.log(u / (1.0 - u))
        np.linalg.lstsq(_DESIGN, y * y, rcond=None)
        x = 0.0
        for v in y.tolist():
            x = 0.4 * x + v
    return perf_counter() - start


def spawn_kernel() -> float:
    """Seconds to start an interpreter that imports NumPy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return perf_counter() - start


class ScaledClock:
    """Times calls and scales them by the calibration kernel run around them.

    The kernel runs before a measurement when ``every_s`` seconds have
    passed since it last ran, and once more by :meth:`calibrate`.
    """

    def __init__(self, kernel, reference_s: float, every_s: float = 0.0) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.every_s = every_s
        self.calibrations: list[float] = []
        self._samples: list[tuple[float, int]] = []  # (wall seconds, calibration index)
        self._calibrated_at = -math.inf

    def calibrate(self) -> None:
        self.calibrations.append(self.kernel())
        self._calibrated_at = perf_counter()

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns a sample handle and the result."""
        if perf_counter() - self._calibrated_at >= self.every_s:
            self.calibrate()
        start = perf_counter()
        result = fn(*args)
        self._samples.append((perf_counter() - start, len(self.calibrations) - 1))
        return len(self._samples) - 1, result

    def wall(self, handle: int) -> float:
        return self._samples[handle][0]

    def factor(self, handle: int) -> float:
        """Reference time over the calibration time around sample ``handle``."""
        index = self._samples[handle][1]
        around = self.calibrations[index : index + 2]
        return self.reference_s * len(around) / sum(around)

    def scaled(self, handle: int) -> float:
        return self.wall(handle) * self.factor(handle)

    def median_factor(self) -> float:
        return float(np.median([self.factor(h) for h in range(len(self._samples))]))
