"""Cumulative-sums-of-squares statistics for abrupt variance breaks.

Four statistics are provided, all of the sup-of-bridge form.  The first
three converge under their null hypotheses to ``sup_s |W(s)|`` with
``W`` a Brownian bridge (see :mod:`varbreak.nulldist`); the limit of the
fourth is set out after the list:

* :func:`statistic_it` -- the classic statistic of Inclan and Tiao
  (1994), ``sup_k |sqrt(n/2) * (C_k/C_n - k/n)|`` with
  ``C_k = sum_{t<=k} u_t**2``.  Sized for i.i.d. Gaussian errors.
* :func:`statistic_sanso` -- the fourth-moment corrected statistic of
  Sansó, Aragó and Carrion (2004),
  ``sup_k |n**-0.5 * (C_k - (k/n) C_n) / sqrt(eta - (C_n/n)**2)|``
  with ``eta = n**-1 sum u_t**4``, valid for non-Gaussian errors.
* :func:`statistic_subsample` -- the same statistic restricted to a
  contiguous window of length q, every n replaced by q.
* :func:`statistic_corrected` -- the subsample statistic computed on
  squared residuals rescaled by a fitted polynomial variance profile,
  so that a smooth drift in the unconditional variance is removed
  before testing for an abrupt break, over the window the profile was
  fitted on.  The partial sums become
  ``sum g_hat**-2(t/n) u_t**2`` and the fourth-moment average
  ``q**-1 sum g_hat**-4(t/n) u_t**4``.

All four share one bridge kernel, ``sup_k |C_k - (k/q) C_q|`` over q
(possibly rescaled) squares, with their mean and dispersion
``eta - (C_q/q)**2``.  Inclan-Tiao divides the sup by C_n = q * mean;
the other three divide it by ``sqrt(q * dispersion)``.

When the profile of :func:`statistic_corrected` is fitted on the same
sample, its null limit is not ``sup|W|``.  If the true profile g lies in
the fitted polynomial class of order p, the partial sums converge to the
bridge of the partial sums of ``e - P(g e)/g``, with ``e`` white noise
and ``P`` the projection onto the powers of rescaled time up to p: a
profile-weighted generalized Brownian bridge, which for constant g is
the order-p bridge of MacNeill (1978).  Its quantiles lie well below the
Kolmogorov ones (95% point near 0.71 for order 3 and g = 1 + 2 r**2,
against 1.358), so the Kolmogorov boundary and p-value are conservative
for the corrected statistic in that case.

All functions are pure; inputs are immutable value types from
:mod:`varbreak.series` and :mod:`varbreak.variance_poly`.  Each reads the
residuals at unit scale, so no power-of-two scale of them can change it.

References
----------
MacNeill, I. B. (1978). Properties of sequences of partial sums of
    polynomial regression residuals with applications to tests for
    change of regression at unknown times. The Annals of Statistics,
    6(2), 422-433.

Inclan, C., & Tiao, G. C. (1994). Use of cumulative sums of squares for
    retrospective detection of changes of variance. Journal of the
    American Statistical Association, 89(427), 913-923.

Sansó, A., Aragó, V., & Carrion-i-Silvestre, J. L. (2004). Testing for
    changes in the unconditional variance of financial time series.
    Revista de Economía Financiera, 4, 32-53.
"""

from __future__ import annotations

import math

import numpy as np

from varbreak.errors import DegenerateSeriesError, NonpositiveVarianceError, ZeroDispersionError
from varbreak.series import ResidualSeries, SubsampleWindow
from varbreak.variance_poly import VariancePolyFit, check_positivity

POSITIVITY_MODES = ("error", "clamp", "none")

_EPS = float(np.finfo(np.float64).eps)


def _bridge(squares: np.ndarray) -> tuple[float, float, float]:
    """(sup, mean, dispersion) of q squares: the kernel of all four statistics.

    ``sup = max_k |D_k - k D_q / q|`` over the partial sums D_k of the
    deviations from the mean, and the dispersion is their mean square.
    Centring first avoids the cancellation of the literal forms when the
    squares nearly agree; ``k D_q / q`` removes the rounding in the mean.
    """
    q = squares.size
    mean = float(squares.sum()) / q
    deviations = squares - mean
    partial = np.cumsum(deviations)
    sup = float(np.max(np.abs(partial - np.arange(1, q + 1) * (partial[-1] / q))))
    return sup, mean, float((deviations * deviations).sum()) / q


def _sanso(squares: np.ndarray) -> float:
    """``sup / sqrt(q * dispersion)``, or ZeroDispersionError for constant squares.

    The squares count as constant when the dispersion is within the
    rounding of their mean, ``(q * eps * mean)**2``.
    """
    sup, mean, dispersion = _bridge(squares)
    q = squares.size
    if dispersion <= (q * _EPS * mean) ** 2:
        raise ZeroDispersionError(
            f"squared residuals are empirically constant (dispersion {dispersion:.3g}); "
            "the statistic is undefined"
        )
    return sup / math.sqrt(dispersion) / math.sqrt(q)


def statistic_it(series: ResidualSeries) -> float:
    """The Inclan-Tiao statistic ``sup_k |sqrt(n/2) * (C_k/C_n - k/n)|``.

    Computed as ``sqrt(n/2) * sup / (n * mean)`` from :func:`_bridge`,
    since ``C_k/C_n - k/n = (D_k - k D_n / n) / (n * mean)`` in exact arithmetic.

    Raises
    ------
    DegenerateSeriesError
        If every residual is zero, so C_n = 0.
    """
    n = series.n
    sup, mean, _ = _bridge(np.square(series.unit_values))
    if mean <= 0.0:
        raise DegenerateSeriesError("all residuals are zero; the statistic is undefined")
    return math.sqrt(n / 2.0) * sup / (n * mean)


def statistic_sanso(series: ResidualSeries) -> float:
    """Fourth-moment corrected statistic on the full sample.

    ``sup_k |n**-0.5 * B_k|`` with
    ``B_k = (C_k - (k/n) C_n) / sqrt(eta - (C_n/n)**2)`` and
    ``eta = n**-1 sum u_t**4``: :func:`statistic_subsample` on the full window.

    Raises
    ------
    ZeroDispersionError
        If the squared residuals are empirically constant, so the
        denominator is not positive.
    """
    return statistic_subsample(series, SubsampleWindow.full(series.n))


def statistic_subsample(series: ResidualSeries, window: SubsampleWindow) -> float:
    """Fourth-moment corrected statistic restricted to a window.

    All sums run over t = offset+1, ..., offset+q and every n in the
    full-sample formula is replaced by q.

    Raises
    ------
    WindowBoundsError
        If the window does not match the series.
    ZeroDispersionError
        If the windowed squared residuals are empirically constant.
    """
    return _sanso(np.square(window.slice_values(series)))


def statistic_corrected(series: ResidualSeries, fit: VariancePolyFit, *, positivity: str = "error") -> float:
    """Variance-profile-corrected statistic on the window of ``fit``.

    ``sup_k |q**-0.5 * B_k|`` computed from
    ``C_k = sum g_hat**-2(t/n) u_t**2`` and
    ``eta = q**-1 sum g_hat**-4(t/n) u_t**4``: the squared residuals are
    divided by the fitted variance profile ``g_hat**2(t/n)`` before the
    bridge is formed.  When the profile is a positive constant this
    reduces exactly to :func:`statistic_subsample`.

    Parameters
    ----------
    series : ResidualSeries
        Residuals.
    fit : VariancePolyFit
        Polynomial variance profile; the statistic runs over its window.
    positivity : {"error", "clamp", "none"}
        What to do when the profile dips to or below the positivity
        floor of :func:`varbreak.variance_poly.check_positivity` inside
        the window: raise (default), replace the offending values by the
        floor, or use the profile as is.

    Raises
    ------
    WindowBoundsError
        If the fit's window was built for a series of another length.
    NonpositiveVarianceError
        Under ``positivity="error"`` when the profile dips to or below
        the floor, and under every mode when a rescaled square is not
        finite (profile exactly zero).
    ZeroDispersionError
        If the rescaled squares are empirically constant.
    """
    if positivity not in POSITIVITY_MODES:
        raise ValueError(f"positivity must be one of {POSITIVITY_MODES}, got {positivity!r}")
    v = fit.window.slice_values(series)
    profile = fit.unit_profile()
    if positivity != "none":
        report = check_positivity(fit)
        if positivity == "error" and not report.passed:
            raise NonpositiveVarianceError(
                f"fitted variance dips to {report.min_value:.6g} at t={report.t_min} "
                f"(positivity floor {report.floor:.6g}); "
                "clamp explicitly or refit with a lower order"
            )
        profile = np.maximum(profile, fit.unit_floor)  # a no-op once "error" has passed
    rescaled = v * v / profile
    if not np.all(np.isfinite(rescaled)):
        raise NonpositiveVarianceError("fitted variance is exactly zero inside the window")
    return _sanso(rescaled)
