"""Core value types: residual series and contiguous analysis windows.

Both types are immutable and validate their invariants at construction,
so downstream code can treat them as always well formed and share them
freely across threads or worker processes.

Unit scale: every fit and statistic reads a series as ``values * 2**-e``,
e from ``frexp(max|values|)``, decided by :func:`_unit_scale` alone.  The
scaling is exact, so no power-of-two scale of the input changes an order,
a lag coefficient or a statistic; a value reported in true units is mapped
back by an exact power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from varbreak.errors import WindowBoundsError


def _unit_scale(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``values`` at unit scale, and its e (0 for a zero row); ValueError for a NaN or infinite value."""
    peak = np.abs(values).max(axis=-1, keepdims=True)
    if not math.isfinite(peak.max()):  # max propagates NaN
        raise ValueError("residuals contain NaN or infinite values")
    exponent = np.frexp(peak)[1]
    return np.ldexp(values, -exponent), exponent[..., 0]


@dataclass(frozen=True, eq=False)
class ResidualSeries:
    """A finite sequence of (possibly prewhitened) residuals.

    Parameters
    ----------
    values : array_like
        Ordered residuals, coerced to a read-only float64 array.

    Raises
    ------
    ValueError
        If there are fewer than two observations, the input is not
        one-dimensional, or any value is NaN or infinite.
    """

    values: np.ndarray
    exponent: int = field(init=False, repr=False)  # max|values| in [2**(e-1), 2**e); 0 if all are 0
    unit_values: np.ndarray = field(init=False, repr=False)  # values * 2**-e: what fits read

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"residuals must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError(f"need at least 2 residuals, got {arr.size}")
        unit, exponent = _unit_scale(arr)
        arr.flags.writeable = unit.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "exponent", int(exponent))
        object.__setattr__(self, "unit_values", unit)

    @property
    def n(self) -> int:
        """Sample length."""
        return int(self.values.size)


@dataclass(frozen=True)
class SubsampleWindow:
    """A contiguous window of ``length`` points starting after ``offset``.

    The window selects the observations t = offset+1, ..., offset+length
    (1-based) of a series of length ``n``.  Its midpoint in rescaled time,
    ``center = (2*offset/n + length/n) / 2``, is the centering point used
    by the polynomial variance regression.

    ``n`` is the length of the series the window refers to, ``offset`` the
    observations skipped before it, and ``length`` its length q, at least 2
    with ``offset + length <= n``.
    """

    n: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"series length n must be at least 2, got {self.n}")
        if self.length < 2:
            raise ValueError(f"window length must be at least 2, got {self.length}")
        if self.offset < 0:
            raise ValueError(f"window offset must be nonnegative, got {self.offset}")
        if self.offset + self.length > self.n:
            raise WindowBoundsError(
                f"window [{self.offset + 1}, {self.offset + self.length}] "
                f"does not fit in a series of length {self.n}"
            )

    @classmethod
    def full(cls, n: int) -> "SubsampleWindow":
        """The whole sample as a window."""
        return cls(n=n, offset=0, length=n)

    @classmethod
    def from_exponent(cls, n: int, gamma: float, start_fraction: float = 0.0) -> "SubsampleWindow":
        """Window of length ``floor(n ** gamma)`` starting at ``floor(start_fraction * n)``."""
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if not 0.0 <= start_fraction < 1.0:
            raise ValueError(f"start_fraction must be in [0, 1), got {start_fraction}")
        return cls(n=n, offset=math.floor(start_fraction * n), length=math.floor(n**gamma))

    @property
    def center(self) -> float:
        """Window midpoint in rescaled time, (2*offset/n + length/n) / 2."""
        return (2.0 * self.offset / self.n + self.length / self.n) / 2.0

    @property
    def stop(self) -> int:
        """One past the last 0-based index covered by the window."""
        return self.offset + self.length

    def times(self) -> np.ndarray:
        """1-based observation indices t covered by the window."""
        return np.arange(self.offset + 1, self.offset + self.length + 1)

    def slice_values(self, series: ResidualSeries) -> np.ndarray:
        """``series.unit_values`` in the window; WindowBoundsError if it has another length."""
        if self.n != series.n:
            raise WindowBoundsError(
                f"window was built for a series of length {self.n}, got length {series.n}"
            )
        return series.unit_values[self.offset : self.stop]
