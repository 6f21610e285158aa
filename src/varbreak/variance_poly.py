"""Polynomial regression of squared residuals in rescaled time.

A smooth variance profile g**2(t/n) is approximated over an analysis
window by a polynomial centered at the window midpoint r0:

    u_t**2 = sum_{i=0}^{p} a_i * (t/n - r0)**i + error,   t in window,

fitted by least squares through :mod:`varbreak._ols` (the centered power
columns are strongly collinear for larger p, so normal equations are
avoided), with the order chosen by the Gaussian AIC ``q * log(RSS/q) + 2(p+1)``.
The factorised design is computed once per window and order and shared
by every later fit.  The fitted profile feeds the corrected statistic in
:mod:`varbreak.cusum`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from varbreak._ols import NestedOls, aic, factorise, fit_factorised
from varbreak.series import ResidualSeries, SubsampleWindow, _true_units

#: Relative floor applied to RSS before the AIC logarithm, in units of
#: the window mean of u**4.  Keeps perfectly fitted models finite and
#: makes order selection prefer the smallest exact order.
AIC_RSS_FLOOR_FRAC = 1e-12

#: Positivity floor of a fitted profile, in units of the window mean of u**2.
POS_FLOOR_FRAC = 0.01

DEFAULT_P_MAX = 5


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
    exponent : int
        The series' power-of-two scale e: a unit_ value times 2**(2e), or 2**(4e) for an RSS, is in true units.
    unit_profile : ndarray
        The fitted profile at unit scale, a cached attribute.
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
    def unit_floor(self) -> float:
        """Positivity floor of the unit-scale profile."""
        return POS_FLOOR_FRAC * self.unit_mean_sq

    @property
    def center(self) -> float:
        """Centering point r0 in rescaled time: the midpoint of the fit's window."""
        return self.window.center

    @functools.cached_property
    def unit_profile(self) -> np.ndarray:
        """Fitted values g_hat**2(t/n) at every t of the fit's own window, evaluated once; read-only."""
        return _read_only(_profiles(np.array(self.unit_coefficients), self.window))


@dataclass(frozen=True)
class OrderSelection:
    """Outcome of AIC order selection."""

    unit_rss: tuple[float, ...]  # floored RSS of orders 1..p_max, at the fit's unit scale
    fit: VariancePolyFit  # the chosen order's fit

    @property
    def chosen_p(self) -> int:
        return self.fit.order

    @property
    def scores(self) -> tuple[tuple[int, float], ...]:
        """``(p, q*log(RSS/q) + 2(p+1))`` for every order, from the true-unit RSS; an RSS of 0 scores -inf."""
        rss = _true_units(self.unit_rss, 4 * self.fit.exponent)
        return tuple(enumerate(aic(rss, self.fit.window.length, 2).tolist(), 1))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=8)
def _centred_time(window: SubsampleWindow) -> np.ndarray:
    """The regressor ``t/n - r0`` at every t of the window; read-only, computed once per window."""
    return _read_only(window.times() / window.n - window.center)


@functools.lru_cache(maxsize=8)
def _design_factors(window: SubsampleWindow, p: int) -> tuple[np.ndarray, np.ndarray, np.bool_]:
    """:func:`factorise` of the window's order-``p`` design, with read-only arrays, once per window and order.

    A design that cannot be fitted raises on every call: an exception is not cached.
    """
    q, r, singular = factorise(np.vander(_centred_time(window), p + 1, increasing=True), f"order {p} design")
    return _read_only(q), _read_only(r), singular  # a shared design is never singular: factorise raised


def _profiles(coefficients: np.ndarray, window: SubsampleWindow) -> np.ndarray:
    """Unit-scale profiles of the rows of ``coefficients`` (..., p + 1) at every t of ``window``.

    Horner's rule, in place, started from the leading coefficient; a row of lower
    order padded with zero high-order coefficients gets the same values as the unpadded row.
    """
    x = _centred_time(window)
    result = np.repeat(coefficients[..., -1:], x.size, axis=-1)
    for c in coefficients.T[-2::-1, ..., None]:
        result *= x
        result += c
    return result


def _fit_order(squares: np.ndarray, window: SubsampleWindow, p: int) -> NestedOls:
    """Nested fits up to order ``p`` of the (..., q) squares of unit-scale window values."""
    if p < 1:
        raise ValueError(f"polynomial order must be at least 1, got {p}")
    return fit_factorised(_design_factors(window, p), squares, ladder=True)


def _select(squares: np.ndarray, window: SubsampleWindow, p_max: int) -> tuple[np.ndarray, ...]:
    """The AIC order search of each row of (R, q) squares of unit-scale window values.

    Per row: the floored RSS of orders 1..p_max, the chosen order, its
    coefficients zero-padded to p_max + 1, and its RSS.
    """
    ols = _fit_order(squares, window, p_max)
    q = squares.shape[-1]
    floor = AIC_RSS_FLOOR_FRAC * ((squares * squares).sum(axis=-1, keepdims=True) / q)
    rss, columns = ols.aic_choice(q, 2, floor)
    # one solve: past its column count k a row's factor is I and its z 0, which keeps R_k's bits and pads with +0.0
    pad = np.arange(ols.z.shape[-1]) >= columns[:, None]
    r = np.where(pad[:, :, None] | pad[:, None, :], np.eye(pad.shape[-1]), ols.r)
    coefficients = np.linalg.solve(r, np.where(pad, 0.0, ols.z)[..., None])[..., 0]
    chosen_rss = ols.rss[np.arange(columns.size), columns]
    return rss, columns - 1, coefficients, chosen_rss


def fit_variance_poly(series: ResidualSeries, window: SubsampleWindow, p: int) -> VariancePolyFit:
    """Least-squares fit of order ``p`` to the windowed squared residuals.

    The regressors are the centered powers ``(t/n - r0)**i`` for t in the window.

    Raises
    ------
    ValueError
        If ``p < 1``.
    SingularDesignError
        If ``length <= p + 1`` or the design is rank deficient.
    """
    squares = window.squares(series)
    ols = _fit_order(squares, window, p)
    coefficients = tuple(ols.coefficients(p + 1).tolist())
    return VariancePolyFit(p, coefficients, float(ols.rss[p + 1]), window, float(np.mean(squares)), series.exponent)


def select_poly_order_aic(
    series: ResidualSeries, window: SubsampleWindow, p_max: int = DEFAULT_P_MAX
) -> OrderSelection:
    """Pick the order in 1..p_max by AIC, RSS floored at ``AIC_RSS_FLOOR_FRAC * mean(u**4)``.

    The AIC rule is that of :mod:`varbreak._ols` (ties to the smaller order).
    Order 0 is never considered; a constant profile is the uncorrected test's job.

    Raises
    ------
    ValueError
        If ``p_max < 1``.
    SingularDesignError
        If ``length <= p_max + 1`` or the order-``p_max`` design is rank deficient.
    """
    return _selection(window.squares(series)[None], window, p_max, series.exponent)


def _selection(squares: np.ndarray, window: SubsampleWindow, p_max: int, exponent: int) -> OrderSelection:
    """The :func:`_select` search of the (1, q) window squares of ``u * 2**-exponent``, as an OrderSelection."""
    rss, p, coefficients, unit_rss = (a[0] for a in _select(squares, window, p_max))
    coefficients = tuple(coefficients[: p + 1].tolist())
    fit = VariancePolyFit(int(p), coefficients, float(unit_rss), window, float(np.mean(squares)), exponent)
    return OrderSelection(tuple(rss.tolist()), fit)


def check_positivity(fit: VariancePolyFit) -> int | None:
    """The 1-based t of the profile's least value if that is at or below ``fit.unit_floor``; else None."""
    idx = int(np.argmin(fit.unit_profile))
    return None if fit.unit_profile[idx] > fit.unit_floor else fit.window.offset + 1 + idx
