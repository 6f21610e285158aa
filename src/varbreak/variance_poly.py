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
Fits, order choices and positivity checks run on unit-scale squares; what
they report is mapped to true units by exact powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varbreak._ols import NestedOls, nested_ols
from varbreak.series import ResidualSeries, SubsampleWindow

#: Relative floor applied to RSS before the AIC logarithm, in units of
#: the window mean of u**4.  Keeps perfectly fitted models finite and
#: makes order selection prefer the smallest exact order.
AIC_RSS_FLOOR_FRAC = 1e-12

#: Positivity floor of a fitted profile, in units of the window mean of u**2.
POS_FLOOR_FRAC = 0.01

DEFAULT_P_MAX = 5


def _true_units(values, power: int):
    """``values * 2**power``: exact, and inf where the true value leaves the float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, power)


@dataclass(frozen=True, eq=False)
class VariancePolyFit:
    """Profile fitted to the squares of ``u * 2**-exponent``; names without unit_ read true units.

    Attributes
    ----------
    order : int
        Polynomial order p >= 1.
    unit_coefficients : tuple of float
        a_0, ..., a_p of the centered powers.
    unit_rss : float
        Residual sum of squares of the fit.
    window : SubsampleWindow
        Window the profile was fitted on.
    unit_mean_sq : float
        Window mean of the squares; scale for positivity floors.
    """

    order: int
    unit_coefficients: tuple[float, ...]
    unit_rss: float
    window: SubsampleWindow
    unit_mean_sq: float
    exponent: int = 0

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(float(c) for c in _true_units(self.unit_coefficients, 2 * self.exponent))

    @property
    def rss(self) -> float:
        return float(_true_units(self.unit_rss, 4 * self.exponent))

    @property
    def mean_sq(self) -> float:
        return float(_true_units(self.unit_mean_sq, 2 * self.exponent))

    @property
    def unit_floor(self) -> float:
        """Positivity floor of the unit-scale profile."""
        return POS_FLOOR_FRAC * self.unit_mean_sq

    @property
    def center(self) -> float:
        """Centering point r0 in rescaled time: the midpoint of the fit's window."""
        return self.window.center

    def unit_profile(self) -> np.ndarray:
        """Fitted values g_hat**2(t/n) at every t of the fit's own window."""
        x = self.window.times() / self.window.n - self.center
        return _horner(self.unit_coefficients, x)

    def profile(self) -> np.ndarray:
        return _true_units(self.unit_profile(), 2 * self.exponent)


@dataclass(frozen=True)
class OrderSelection:
    """Outcome of AIC order selection."""

    chosen_p: int
    unit_rss: tuple[float, ...]  # floored RSS of orders 1..p_max, at the fit's unit scale
    fit: VariancePolyFit  # the chosen order's fit

    @property
    def scores(self) -> tuple[tuple[int, float], ...]:
        """``(p, q*log(RSS/q) + 2(p+1))`` for every order, from the true-unit RSS."""
        q = self.fit.window.length
        rss = _true_units(self.unit_rss, 4 * self.fit.exponent)
        with np.errstate(divide="ignore"):  # a true-unit RSS that underflows to 0 scores -inf
            scores = [float(q * np.log(r / q) + 2.0 * (p + 1)) for p, r in enumerate(rss, 1)]
        return tuple(enumerate(scores, 1))


@dataclass(frozen=True)
class PositivityReport:
    """Minimum of a fitted profile over its window versus the positivity floor, in true units."""

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


def _poly_fit(ols: NestedOls, squares: np.ndarray, window: SubsampleWindow, p: int, exponent: int):
    return VariancePolyFit(
        order=p,
        unit_coefficients=tuple(float(c) for c in ols.coefficients(p + 1)),
        unit_rss=float(ols.rss[p + 1]),
        window=window,
        unit_mean_sq=float(np.mean(squares)),
        exponent=exponent,
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
    return _poly_fit(ols, squares, window, p, series.exponent)


def select_poly_order_aic(
    series: ResidualSeries, window: SubsampleWindow, p_max: int = DEFAULT_P_MAX
) -> OrderSelection:
    """Pick the order in 1..p_max minimizing ``q*log(RSS/q) + 2(p+1)``.

    Ties break toward the smaller order.  RSS is floored at
    ``AIC_RSS_FLOOR_FRAC * mean(u**4)`` before the logarithm so exact
    fits stay comparable.  Order 0 is never considered; a constant
    profile is the uncorrected test's job.  Every order's RSS, and the
    chosen fit returned in the selection, come from one QR
    factorisation of the order-``p_max`` design.  The order is chosen
    from unit-scale scores; the reported ones use the true-unit RSS.

    Raises
    ------
    ValueError
        If ``p_max < 1`` or the window cannot support ``p_max``.
    SingularDesignError
        If the order-``p_max`` design is rank deficient.
    """
    squares, ols = _fit_order(series, window, p_max)
    floor = AIC_RSS_FLOOR_FRAC * float(np.mean(squares * squares))
    q = window.length
    rss = tuple(float(max(r, floor)) for r in ols.rss[2:])  # orders 1..p_max
    unit_scores = [q * np.log(r / q) + 2.0 * (p + 1) for p, r in enumerate(rss, 1)]
    chosen_p = 1 + unit_scores.index(min(unit_scores))
    return OrderSelection(
        chosen_p=chosen_p,
        unit_rss=rss,
        fit=_poly_fit(ols, squares, window, chosen_p, series.exponent),
    )


def check_positivity(fit: VariancePolyFit) -> PositivityReport:
    """Check the fitted profile against its positivity floor.

    Evaluates g_hat**2 at every in-window t and compares the minimum to
    ``floor = POS_FLOOR_FRAC * mean_sq``.  The report is advisory: the
    corrected statistic raises on violation unless clamping is
    explicitly enabled.
    """
    values = fit.unit_profile()
    idx = int(np.argmin(values))
    min_value, floor = _true_units([values[idx], fit.unit_floor], 2 * fit.exponent)
    return PositivityReport(
        min_value=float(min_value),
        floor=float(floor),
        passed=bool(values[idx] > fit.unit_floor),
        t_min=fit.window.offset + 1 + idx,
    )
