"""Polynomial regression of squared residuals in rescaled time.

A smooth variance profile g**2(t/n) is approximated over an analysis
window by a polynomial centered at the window midpoint r0:

    u_t**2 = sum_{i=0}^{p} a_i * (t/n - r0)**i + error,   t in window,

fitted by least squares through a QR decomposition (the centered power
columns are strongly collinear for larger p, so normal equations are
avoided).  The fitted profile feeds the corrected statistic in
:mod:`varbreak.cusum`; order selection uses the Gaussian AIC
``q * log(RSS/q) + 2(p+1)``.  The designs of successive orders are
nested, so one QR of the largest design gives every order's fit; this
AIC search and the AR one in :mod:`varbreak.armodel` share that routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from varbreak._ols import NestedOls, nested_ols
from varbreak.errors import DegenerateSeriesError
from varbreak.series import ResidualSeries, SubsampleWindow

#: Relative floor applied to RSS before the AIC logarithm, in units of
#: the window mean of u**4.  Keeps perfectly fitted models finite and
#: makes order selection prefer the smallest exact order.
AIC_RSS_FLOOR_FRAC = 1e-12

#: Positivity floor of a fitted profile, in units of the window mean of u**2.
POS_FLOOR_FRAC = 0.01

DEFAULT_P_MAX = 5


@dataclass(frozen=True, eq=False)
class VariancePolyFit:
    """A fitted polynomial variance profile.

    Attributes
    ----------
    order : int
        Polynomial order p >= 1.
    coefficients : tuple of float
        a_0, ..., a_p of the centered powers.
    rss : float
        Residual sum of squares of the fit.
    window : SubsampleWindow
        Window the profile was fitted on.
    mean_sq : float
        Window mean of the squared residuals; scale for positivity floors.
    """

    order: int
    coefficients: tuple[float, ...]
    rss: float
    window: SubsampleWindow
    mean_sq: float

    @property
    def center(self) -> float:
        """Centering point r0 in rescaled time: the midpoint of the fit's window."""
        return self.window.center

    def profile(self) -> np.ndarray:
        """Fitted values g_hat**2(t/n) at every t of the fit's own window."""
        x = self.window.times() / self.window.n - self.center
        return _horner(self.coefficients, x)


@dataclass(frozen=True)
class OrderSelection:
    """Outcome of AIC order selection."""

    chosen_p: int
    scores: tuple[tuple[int, float], ...]
    p_max: int
    fit: VariancePolyFit  # the chosen order's fit


@dataclass(frozen=True)
class PositivityReport:
    """Minimum of a fitted profile over its window versus the positivity floor."""

    min_value: float
    floor: float
    passed: bool
    t_min: int


def _horner(coefficients: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    result = np.zeros_like(x)
    for c in reversed(coefficients):
        result = result * x + c
    return result


def _fit_order(
    series: ResidualSeries, window: SubsampleWindow, p: int
) -> tuple[np.ndarray, NestedOls]:
    """Squared window residuals and their nested fits up to order ``p``."""
    if p < 1:
        raise ValueError(f"polynomial order must be at least 1, got {p}")
    if window.length < p + 2:
        raise ValueError(
            f"window length {window.length} cannot support order {p}; need at least {p + 2}"
        )
    u = window.slice_values(series)
    squares = u * u
    x = window.times() / window.n - window.center
    ols = nested_ols(np.vander(x, p + 1, increasing=True), squares, f"order {p} design")
    return squares, ols


def _poly_fit(ols: NestedOls, squares: np.ndarray, window: SubsampleWindow, p: int):
    return VariancePolyFit(
        order=p,
        coefficients=tuple(float(c) for c in ols.coefficients(p + 1)),
        rss=float(ols.rss[p + 1]),
        window=window,
        mean_sq=float(np.mean(squares)),
    )


def fit_variance_poly(series: ResidualSeries, window: SubsampleWindow, p: int) -> VariancePolyFit:
    """Least-squares fit of order ``p`` to the windowed squared residuals.

    Parameters
    ----------
    series, window
        Residuals and the analysis window; the regressors are the
        centered powers ``(t/n - r0)**i`` for t in the window.
    p : int
        Polynomial order, at least 1; the window must satisfy
        ``length >= p + 2``.

    Raises
    ------
    ValueError
        If ``p < 1`` or the window is too short for the order.
    SingularDesignError
        If the design matrix is numerically rank deficient.
    """
    squares, ols = _fit_order(series, window, p)
    return _poly_fit(ols, squares, window, p)


def select_poly_order_aic(
    series: ResidualSeries, window: SubsampleWindow, p_max: int = DEFAULT_P_MAX
) -> OrderSelection:
    """Pick the order in 1..p_max minimizing ``q*log(RSS/q) + 2(p+1)``.

    Ties break toward the smaller order.  RSS is floored at
    ``AIC_RSS_FLOOR_FRAC * mean(u**4)`` before the logarithm so exact
    fits stay comparable.  Order 0 is never considered; a constant
    profile is the uncorrected test's job.  Every order's RSS, and the
    chosen fit returned in the selection, come from one QR
    factorisation of the order-``p_max`` design.

    Raises
    ------
    ValueError
        If ``p_max < 1`` or the window cannot support ``p_max``.
    SingularDesignError
        If the order-``p_max`` design is rank deficient.
    DegenerateSeriesError
        If no order has an AIC below infinity (the squared residuals
        overflow).
    """
    squares, ols = _fit_order(series, window, p_max)
    floor = AIC_RSS_FLOOR_FRAC * float(np.mean(squares * squares))
    q = window.length
    scores = tuple(
        (p, float(q * np.log(max(ols.rss[p + 1], floor) / q) + 2.0 * (p + 1)))
        for p in range(1, p_max + 1)
    )
    candidates = [(aic, p) for p, aic in scores if aic < math.inf]
    if not candidates:
        raise DegenerateSeriesError(
            "every polynomial order's AIC is infinite or undefined; the squared residuals overflow"
        )
    chosen_p = min(candidates)[1]
    return OrderSelection(
        chosen_p=chosen_p,
        scores=scores,
        p_max=p_max,
        fit=_poly_fit(ols, squares, window, chosen_p),
    )


def check_positivity(fit: VariancePolyFit) -> PositivityReport:
    """Check the fitted profile against its positivity floor.

    Evaluates g_hat**2 at every in-window t and compares the minimum to
    ``floor = POS_FLOOR_FRAC * mean_sq``.  The report is advisory: the
    corrected statistic raises on violation unless clamping is
    explicitly enabled.
    """
    values = fit.profile()
    idx = int(np.argmin(values))
    min_value = float(values[idx])
    floor = POS_FLOOR_FRAC * fit.mean_sq
    return PositivityReport(
        min_value=min_value,
        floor=floor,
        passed=min_value > floor,
        t_min=fit.window.offset + 1 + idx,
    )
