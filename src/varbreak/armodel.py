"""AR(m) prewhitening by OLS and automatic order selection.

The variance tests act on approximately uncorrelated residuals, so
observed series are first regressed on their own lags.  Fitting is
plain least squares; order selection minimizes the Gaussian AIC on a
common effective sample so scores are comparable across orders.  All
fits, and both AIC searches (this one and the polynomial order search
in :mod:`varbreak.variance_poly`), go through one nested least-squares
routine that factorises the largest design once with a QR.
Both fit at unit scale, as a ``ResidualSeries`` holds the input: scaling it by 2**k
keeps the order and lag coefficients and scales the intercept and residuals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varbreak._ols import nested_ols
from varbreak.series import ResidualSeries

_RSS_FLOOR = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class ArFit:
    """An autoregression fitted by OLS.

    ``residuals.values[k] = y_k - intercept - sum_i coefficients[i] * y_{k-i}``
    where y is the input and k runs over the effective sample t = order+1..n.
    """

    order: int
    coefficients: tuple[float, ...]
    intercept: float
    residuals: ResidualSeries


def _ar_design(z: np.ndarray, order: int, intercept: bool) -> np.ndarray:
    # responses z_t, t = order..n-1 (0-based): an optional constant, then z_{t-1}..z_{t-order}
    design = np.empty((z.size - order, int(intercept) + order))
    if intercept:
        design[:, 0] = 1.0
    for i in range(1, order + 1):
        design[:, int(intercept) + i - 1] = z[order - i : z.size - i]
    return design


def fit_ar_ols(values, order: int, *, intercept: bool = False) -> ArFit:
    """OLS fit of x_t on (x_{t-1}, ..., x_{t-order}).

    Parameters
    ----------
    values : array_like
        Observed series, length strictly greater than ``order + 1``.
    order : int
        Number of lags m >= 0.  With m = 0 the residuals are the input
        itself (intercept-adjusted if requested).
    intercept : bool
        Include a constant regressor.  Off for zero-mean models,
        on by default in the real-data pipeline.

    Raises
    ------
    ValueError
        For a negative order or a too-short series.
    SingularDesignError
        If the regressor matrix is rank deficient.
    """
    series = ResidualSeries(values)  # validated and held at unit scale
    x = series.unit_values
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if x.size <= order + 1:
        raise ValueError(f"series length {x.size} must exceed order + 1 = {order + 1}")
    y = x[order:]
    design = _ar_design(x, order, intercept)
    beta = nested_ols(design, y, f"AR({order}) design").coefficients(design.shape[1])
    const = float(np.ldexp(beta[0], series.exponent)) if intercept else 0.0
    coeffs = tuple(float(b) for b in (beta[1:] if intercept else beta))
    residuals = np.ldexp(y - design @ beta, series.exponent)
    return ArFit(
        order=order,
        coefficients=coeffs,
        intercept=const,
        residuals=ResidualSeries(residuals),
    )


def select_ar_order(values, max_order: int) -> int:
    """AIC order selection over m = 0..max_order on a common sample.

    Every candidate regresses the same responses t = max_order+1..n on
    an intercept and m lags, is scored with
    ``n_eff * log(RSS/n_eff) + 2(m+1)``, and the smallest
    minimizing order is returned.  The candidates' designs are the
    leading columns of the max_order design, so one QR factorisation
    gives every RSS.

    Raises
    ------
    ValueError
        If the series is too short for ``max_order``.
    SingularDesignError
        If the max_order regressor matrix is rank deficient.
    """
    x = ResidualSeries(values).unit_values
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    if x.size <= max_order + 2:
        raise ValueError(f"series length {x.size} must exceed max_order + 2 = {max_order + 2}")
    design = _ar_design(x, max_order, intercept=True)
    rss = nested_ols(design, x[max_order:], f"AR({max_order}) design").rss
    n_eff = design.shape[0]
    chosen = 0
    best = np.inf
    for m in range(0, max_order + 1):
        aic = n_eff * np.log(max(rss[1 + m], _RSS_FLOOR) / n_eff) + 2.0 * (m + 1)
        if aic < best:
            best = aic
            chosen = m
    return chosen


def default_max_order(n: int, frequency: str = "unknown") -> int:
    """Conventional AIC search cap: 8 quarterly, 12 monthly, else 4*(n/100)**0.25."""
    if frequency == "quarterly":
        cap = 8
    elif frequency == "monthly":
        cap = 12
    else:
        cap = int(round(4.0 * (n / 100.0) ** 0.25))
    return max(0, min(cap, n - 3, (n - 1) // 2))  # no design wider than it is tall
