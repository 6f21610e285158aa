"""AR(m) prewhitening by OLS and automatic order selection.

The variance tests act on approximately uncorrelated residuals, so
observed series are first regressed on their own lags, by least squares
through :mod:`varbreak._ols`.  Order selection scores every order on a
common effective sample, so that the scores are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varbreak._ols import factorise, fit_factorised
from varbreak.series import ResidualSeries, _true_units

_RSS_FLOOR = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class ArFit:
    """An autoregression fitted by OLS.

    ``residuals.values[k] = y_k - intercept - sum_i coefficients[i] * y_{k-i}``, inf past the float range
    like the intercept, where y is the input and k runs over the effective sample t = order+1..n.
    """

    order: int
    coefficients: tuple[float, ...]
    intercept: float
    residuals: ResidualSeries


def _ar_design(z: np.ndarray, order: int, intercept: bool, layout: str = "C") -> np.ndarray:
    # per row of z: responses z_t, t = order..n-1 (0-based); an optional constant, then z_{t-1}..z_{t-order}.
    # layout "F" stores each column contiguously, the order numpy's QR copies its input into for LAPACK
    rows = max(z.shape[-1] - order, 0)  # none for a series no longer than the order, which factorise rejects
    design = np.empty((*z.shape[:-1], rows, int(intercept) + order), order=layout)
    if intercept:
        design[..., 0] = 1.0
    for i in range(1, order + 1):
        design[..., int(intercept) + i - 1] = z[..., order - i : order - i + rows]
    return design


def _fit_rows(units: np.ndarray, order: int, intercept: bool):
    """OLS AR fits of the rows of unit-scale series ``units`` (..., n), each row with its own design.

    Returns the fits, the coefficients (..., K) and the residuals (..., n - order), all at the
    scale of ``units``; a row whose design is rank deficient is flagged by the fits and has zero coefficients.
    """
    y = units[..., order:]
    design = _ar_design(units, order, intercept)
    ols = fit_factorised(factorise(design, f"AR({order}) design"), y)
    beta = ols.coefficients(design.shape[-1])
    return ols, beta, y - np.matmul(design, beta[..., None])[..., 0]


def fit_ar_ols(values, order: int, *, intercept: bool = False) -> ArFit:
    """OLS fit of x_t on (x_{t-1}, ..., x_{t-order}), in the units of ``values``.

    Parameters
    ----------
    values : array_like or ResidualSeries
        Observed series of n >= 2 values; a ResidualSeries is used as is, so it is unit-scaled once.
    order : int
        Number of lags m >= 0; with m = 0 the residuals are the input, less any intercept.
    intercept : bool
        Include a constant regressor.

    Raises
    ------
    ValueError
        For a negative order, or values that are not a finite series of at least 2.
    SingularDesignError
        If ``n <= 2*order + intercept`` (no more rows than columns) or the design is rank deficient.
    """
    series = values if hasattr(values, "unit_values") else ResidualSeries(values)  # a tracer may wrap the class
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    _, beta, residuals = _fit_rows(series.unit_values, order, intercept)
    const = float(_true_units(beta[0], series.exponent)) if intercept else 0.0
    coeffs = tuple(float(b) for b in (beta[1:] if intercept else beta))
    return ArFit(
        order=order,
        coefficients=coeffs,
        intercept=const,
        residuals=ResidualSeries(residuals, series.exponent),
    )


def select_ar_order(values, max_order: int) -> int:
    """AIC order selection over m = 0..max_order, by the rule of :mod:`varbreak._ols` (ties to the smaller order).

    Every candidate regresses the same responses t = max_order+1..n on an
    intercept and m lags (AIC penalty 2(m + 1)), its RSS floored at the
    smallest normal float.

    Raises
    ------
    ValueError
        For a negative ``max_order``, or values that are not a finite series of at least 2.
    SingularDesignError
        If ``n <= 2*max_order + 1`` (no more rows than columns) or the design is rank deficient.
    """
    x = (values if hasattr(values, "unit_values") else ResidualSeries(values)).unit_values  # as in fit_ar_ols
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    design = _ar_design(x, max_order, intercept=True, layout="F")  # the same Q and R bits, no strided copy
    ols = fit_factorised(factorise(design, f"AR({max_order}) design"), x[max_order:], ladder=True)
    return int(ols.aic_choice(design.shape[0], 1, _RSS_FLOOR)[1]) - 1


def default_max_order(n: int, frequency: str = "unknown") -> int:
    """Conventional AIC search cap: 8 quarterly, 12 monthly, else 4*(n/100)**0.25."""
    if frequency == "quarterly":
        cap = 8
    elif frequency == "monthly":
        cap = 12
    else:
        cap = int(round(4.0 * (n / 100.0) ** 0.25))
    return max(0, min(cap, (n - 2) // 2))  # the cap's design, n - cap rows by cap + 1 columns, is taller than wide
