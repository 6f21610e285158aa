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
  before testing for an abrupt break.  The partial sums become
  ``sum g_hat**-2(t/n) u_t**2`` and the fourth-moment average
  ``q**-1 sum g_hat**-4(t/n) u_t**4``.

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
:mod:`varbreak.series` and :mod:`varbreak.variance_poly`.

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
from dataclasses import dataclass

import numpy as np

from varbreak.errors import DegenerateSeriesError, NonpositiveVarianceError, ZeroDispersionError
from varbreak.series import ResidualSeries, SubsampleWindow
from varbreak.variance_poly import VariancePolyFit, check_positivity

POSITIVITY_MODES = ("error", "clamp", "none")

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class CusumTrace:
    """Intermediate quantities of a bridge statistic.

    Attributes
    ----------
    cumsums : numpy.ndarray
        Partial sums C_k of the (possibly variance-rescaled) squared
        residuals, k = 1..q.
    eta : float
        Window average of the (rescaled) fourth powers.
    bridge : numpy.ndarray
        Normalized deviations B_k = (C_k - (k/q) C_q) / sqrt(eta - (C_q/q)**2).
    statistic : float
        sup_k |q**-0.5 * B_k|.
    """

    cumsums: np.ndarray
    eta: float
    bridge: np.ndarray
    statistic: float


def _scaled_squares(u: np.ndarray) -> tuple[np.ndarray, int]:
    """Squares of ``u * 2**-e`` with max|u * 2**-e| in [0.5, 1), and the exponent 2e.

    Squaring after the scaling keeps u**2 and u**4 clear of overflow and
    of subnormal underflow.  Scaling by a power of two is exact, and the
    bridge statistics are scale invariant, so they are unchanged.
    """
    _, e = math.frexp(float(np.max(np.abs(u))))
    v = np.ldexp(u, -e)
    return v * v, 2 * e


def _bridge_trace(squares: np.ndarray, exponent: int = 0) -> CusumTrace:
    """Full bridge trace of a window of (rescaled) squared residuals.

    ``squares`` are the true squares times ``2**-exponent``; the trace
    reports C_k and eta in the true units.

    The dispersion eta - (C_q/q)**2 is formed as the mean squared
    deviation from the window mean, and the bridge as ``D_k - k D_q / q``
    over the partial sums D_k of those deviations: the literal
    differences cancel when the squares nearly agree, and the second
    term removes the rounding left in the mean.  The squares count as
    constant when the dispersion is within the rounding of their mean,
    (q * eps * mean)**2.
    """
    q = squares.size
    mean = float(squares.sum()) / q
    deviations = squares - mean
    dispersion = float((deviations * deviations).sum()) / q
    if dispersion <= (q * _EPS * mean) ** 2:
        raise ZeroDispersionError(
            f"squared residuals are empirically constant (dispersion {dispersion:.3g}); "
            "the statistic is undefined"
        )
    partial = np.cumsum(deviations)
    bridge = (partial - np.arange(1, q + 1) * (partial[-1] / q)) / math.sqrt(dispersion)
    statistic = float(np.max(np.abs(bridge)) / math.sqrt(q))
    cumsums = np.cumsum(squares)
    eta = dispersion + mean * mean
    with np.errstate(over="ignore"):  # true sums beyond the float range read as inf
        cumsums, eta = np.ldexp(cumsums, exponent), float(np.ldexp(eta, 2 * exponent))
    return CusumTrace(cumsums=cumsums, eta=eta, bridge=bridge, statistic=statistic)


def statistic_it(series: ResidualSeries) -> float:
    """The Inclan-Tiao statistic ``sup_k |sqrt(n/2) * (C_k/C_n - k/n)|``.

    Raises
    ------
    DegenerateSeriesError
        If every residual is zero, so C_n = 0.
    """
    sq, _ = _scaled_squares(series.values)
    cumsums = np.cumsum(sq)
    n = series.n
    if cumsums[-1] <= 0.0:
        raise DegenerateSeriesError("all residuals are zero; the statistic is undefined")
    k = np.arange(1, n + 1, dtype=np.float64)
    drift = cumsums / cumsums[-1] - k / n
    return float(math.sqrt(n / 2.0) * np.max(np.abs(drift)))


def sanso_trace(series: ResidualSeries, window: SubsampleWindow | None = None) -> CusumTrace:
    """Full trace of the fourth-moment corrected statistic on a window.

    With ``window=None`` the whole sample is used, which reproduces
    :func:`statistic_sanso` exactly.
    """
    if window is None:
        window = SubsampleWindow.full(series.n)
    return _bridge_trace(*_scaled_squares(window.slice_values(series)))


def statistic_sanso(series: ResidualSeries) -> float:
    """Fourth-moment corrected statistic on the full sample.

    ``sup_k |n**-0.5 * B_k|`` with
    ``B_k = (C_k - (k/n) C_n) / sqrt(eta - (C_n/n)**2)`` and
    ``eta = n**-1 sum u_t**4``.

    Raises
    ------
    ZeroDispersionError
        If the squared residuals are empirically constant, so the
        denominator is not positive.
    """
    return sanso_trace(series).statistic


def statistic_subsample(series: ResidualSeries, window: SubsampleWindow) -> float:
    """Fourth-moment corrected statistic restricted to a window.

    All sums run over t = offset+1, ..., offset+q and every n in the
    full-sample formula is replaced by q.  With the full window this is
    bit-identical to :func:`statistic_sanso`.

    Raises
    ------
    WindowBoundsError
        If the window does not match the series.
    ZeroDispersionError
        If the windowed squared residuals are empirically constant.
    """
    return sanso_trace(series, window).statistic


def corrected_trace(
    series: ResidualSeries,
    window: SubsampleWindow,
    fit: VariancePolyFit,
    *,
    positivity: str = "error",
) -> CusumTrace:
    """Full trace of the variance-profile-corrected statistic.

    The squared residuals are divided by the fitted variance profile
    ``g_hat**2(t/n)`` before the bridge is formed, so ``cumsums`` holds
    the rescaled partial sums and ``eta`` the rescaled fourth-moment
    average.

    Parameters
    ----------
    series, window
        Residuals and the analysis window.
    fit : VariancePolyFit
        Polynomial variance profile fitted on ``window``.
    positivity : {"error", "clamp", "none"}
        What to do when the profile dips to or below the positivity
        floor of :func:`varbreak.variance_poly.check_positivity` inside
        the window: raise (default), replace the offending values by the
        floor, or use the profile as is.

    Raises
    ------
    ValueError
        If ``fit`` was fitted on a different window.
    NonpositiveVarianceError
        Under ``positivity="error"`` when the profile dips to or below
        the floor, and under every mode when a rescaled square is not
        finite (profile exactly zero).
    ZeroDispersionError
        If the rescaled squares are empirically constant.
    """
    if positivity not in POSITIVITY_MODES:
        raise ValueError(f"positivity must be one of {POSITIVITY_MODES}, got {positivity!r}")
    u = window.slice_values(series)
    if fit.window != window:
        raise ValueError(f"variance fit was built on {fit.window}, not on {window}")
    profile = fit.profile()
    if positivity != "none":
        report = check_positivity(fit)
        if positivity == "error" and not report.passed:
            raise NonpositiveVarianceError(
                f"fitted variance dips to {report.min_value:.6g} at t={report.t_min} "
                f"(positivity floor {report.floor:.6g}); "
                "clamp explicitly or refit with a lower order"
            )
        profile = np.maximum(profile, report.floor)  # a no-op once "error" has passed
    rescaled = u * u / profile
    if not np.all(np.isfinite(rescaled)):
        raise NonpositiveVarianceError("fitted variance is exactly zero inside the window")
    return _bridge_trace(rescaled)


def statistic_corrected(
    series: ResidualSeries,
    window: SubsampleWindow,
    fit: VariancePolyFit,
    *,
    positivity: str = "error",
) -> float:
    """Variance-profile-corrected statistic on a window.

    ``sup_k |q**-0.5 * B_k|`` computed from
    ``C_k = sum g_hat**-2(t/n) u_t**2`` and
    ``eta = q**-1 sum g_hat**-4(t/n) u_t**4``.  When the profile is a
    positive constant this reduces exactly to :func:`statistic_subsample`.

    See :func:`corrected_trace` for parameters and errors.
    """
    return corrected_trace(series, window, fit, positivity=positivity).statistic
