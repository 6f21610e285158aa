"""Limiting null distribution of the tests and decision rules.

Under their null hypotheses the Inclan-Tiao, Sansó and subsample
statistics of :mod:`varbreak.cusum` converge in distribution to
``sup_s |W(s)|`` where ``W`` is a Brownian bridge.  The distribution of
that supremum is the Kolmogorov distribution, with CDF

    P(sup|W| <= x) = 1 - 2 * sum_{k>=1} (-1)**(k+1) * exp(-2 k**2 x**2).

For x >= 1 the survival function is summed from that series directly;
for x < 1 the CDF is summed from the dual theta-function series

    P(sup|W| <= x) = sqrt(2 pi) / x * sum_{k>=1} exp(-(2k-1)**2 pi**2 / (8 x**2)),

and each side is the complement of the other, so both tails keep full
relative precision.  A sum stops once its next term is below the
rounding of the running total.  This module inverts the law by bisection
and packages the two decision boundaries used by the tests: the exact
asymptotic quantile at a requested level, and the conventional tabulated
boundary 1.33 of Sansó, Aragó and Carrion (2004).  For the corrected
statistic both are conservative (see :mod:`varbreak.cusum`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_EPS = sys.float_info.epsilon

#: Conventional finite-sample 5% boundary tabulated by Sansó et al. (2004).
FIXED_BOUNDARY = 1.33


def _upper_tail(x: float) -> float:
    """P(sup|W| > x) for x >= 1: 2 * sum_{k>=1} (-1)**(k+1) * exp(-2 k**2 x**2)."""
    total = 0.0
    k = 1
    while (term := math.exp(-2.0 * k * k * x * x)) > _EPS * total:
        total += term if k % 2 else -term
        k += 1
    return 2.0 * total


def _lower_tail(x: float) -> float:
    """P(sup|W| <= x) for 0 < x < 1 by the theta-function series."""
    scale = -(math.pi / x) * (math.pi / x) / 8.0
    total = 0.0
    k = 1
    while (term := math.exp(scale * (2 * k - 1) ** 2)) > _EPS * total:
        total += term
        k += 1
    return math.sqrt(2.0 * math.pi) * (total / x)  # 0.0 once the first term underflows


def kolmogorov_cdf(x: float) -> float:
    """CDF of the Kolmogorov distribution, P(sup|W| <= x), with full relative precision below x = 1.

    Raises
    ------
    ValueError
        If ``x`` is negative or NaN.
    """
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < 1.0:
        return _lower_tail(x)
    return 1.0 - _upper_tail(x)


def _bisect(rising, target: float) -> float:
    """The x where the increasing ``rising(x)`` crosses ``target``, to 1e-12; [0.2, 4] is widened to hold it."""
    lo, hi = 0.2, 4.0
    while rising(lo) > target:
        lo /= 2.0
    while rising(hi) < target:
        hi *= 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if rising(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kolmogorov_quantile(p: float) -> float:
    """Inverse of :func:`kolmogorov_cdf`: the x with ``kolmogorov_cdf(x)`` closest to ``p``, to 1e-12 in x.

    Raises
    ------
    ValueError
        If ``p`` is outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _bisect(kolmogorov_cdf, p)


def pvalue(statistic: float) -> float:
    """Asymptotic p-value, P(sup|W| > statistic), with full relative precision from 1 up.

    Raises
    ------
    ValueError
        If ``statistic`` is negative or NaN.
    """
    if not statistic >= 0:
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    if statistic >= 1.0:
        return _upper_tail(statistic)
    return 1.0 - kolmogorov_cdf(statistic)


@dataclass(frozen=True)
class DecisionRule:
    """A rejection boundary together with how it was obtained.

    ``source`` is one of ``"asymptotic"`` (:meth:`asymptotic`),
    ``"boundary"`` (:meth:`fixed_boundary`) or ``"user"``.  Reports carry
    both, so that every rejection names the critical value that produced it.
    """

    critical_value: float
    level: float | None
    source: str

    def __post_init__(self) -> None:
        if not self.critical_value > 0:
            raise ValueError(f"critical value must be positive, got {self.critical_value}")
        if self.level is not None and not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.source not in ("asymptotic", "boundary", "user"):
            raise ValueError(f"unknown decision rule source {self.source!r}")

    @classmethod
    def asymptotic(cls, level: float = 0.05) -> "DecisionRule":
        """Asymptotic rule at ``level``: reject beyond the x whose :func:`pvalue` is ``level``.

        Inverting the p-value itself keeps full relative precision at small
        levels, where the quantile at ``1 - level`` would round.

        Raises
        ------
        ValueError
            If ``level`` is outside (0, 1).
        """
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        return cls(_bisect(lambda x: -pvalue(x), -level), level, "asymptotic")  # -pvalue rises with x

    @classmethod
    def fixed_boundary(cls) -> "DecisionRule":
        """The conventional tabulated 5% boundary 1.33."""
        return cls(FIXED_BOUNDARY, 0.05, "boundary")

    def rejects(self, statistic: float) -> bool:
        """True when ``statistic`` strictly exceeds the boundary."""
        return statistic > self.critical_value

    @property
    def label(self) -> str:
        return f"{self.source}(crit={self.critical_value:.6g})"
