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
the other three divide it by ``sqrt(q * dispersion)``.  Those three run
row-wise over a stack of series, the public functions being one-row
calls: each failure rule is tested in one place, which records the
row's :class:`VarbreakError` once, for a one-row call to raise.

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
from varbreak.variance_poly import VariancePolyFit, _profiles, _select, check_positivity

POSITIVITY_MODES = ("error", "clamp", "none")

_EPS = float(np.finfo(np.float64).eps)
# 2**(53 - 1022): with a peak at least this large, every square within 2**53 of it is normal
_SMALLEST_PEAK = 2.0**-969


def _bridge(squares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sup, mean, dispersion) of each row of (..., q) squares: the kernel of all four statistics.

    ``sup = max_k |D_k - k D_q / q|`` over the partial sums D_k of the
    deviations from the mean, and the dispersion is their mean square.
    Centring first avoids the cancellation of the literal forms when the
    squares nearly agree; ``k D_q / q`` removes the rounding in the mean.
    Every reduction runs along the last axis, so a row's values do not
    depend on the rows stacked with it: one series is the one-row case.
    """
    q = squares.shape[-1]
    mean = squares.sum(axis=-1, keepdims=True) / q
    deviations = squares - mean
    dispersion = np.square(deviations).sum(axis=-1) / q
    bridge = deviations.cumsum(axis=-1, out=deviations)  # in place: blocks stay a few arrays
    bridge -= np.arange(1, q + 1) * (bridge[..., -1:] / q)
    return np.abs(bridge, out=bridge).max(axis=-1), mean[..., 0], dispersion


def _sanso(squares: np.ndarray, failures: np.ndarray) -> np.ndarray:
    """Each row's ``sup / sqrt(q * dispersion)``; a row with constant squares fails with ZeroDispersionError.

    The squares count as constant when the dispersion is within the
    rounding of their mean, ``(q * eps * mean)**2``.  ``failures`` holds
    each row's first failure, the :class:`VarbreakError` a one-row call
    raises, or None.
    """
    sup, mean, dispersion = _bridge(squares)
    q = squares.shape[-1]
    constant = dispersion <= (q * _EPS * mean) ** 2
    for row in constant.nonzero()[0]:
        if failures[row] is None:
            failures[row] = ZeroDispersionError(
                f"squared residuals are empirically constant (dispersion {dispersion[row]:.3g}); "
                "the statistic is undefined"
            )
    # adding the mask keeps a constant row from 0/0 and adds an exact 0 to every other row
    return sup / np.sqrt(dispersion + constant) / math.sqrt(q)


def _corrected(values: np.ndarray, profile: np.ndarray, floor: float | None, failures: np.ndarray) -> np.ndarray:
    """:func:`_sanso` of each row of ``values**2 / profile``, the profile floored at ``floor`` unless that is None.

    A row whose rescaled squares are not finite (a profile so small that a
    square overflows), or peak below ``_SMALLEST_PEAK`` (a profile so large
    that squares within 2**53 of the peak may be subnormal), is redone with
    its profile scaled by the power of two of its peak.  If they are still
    not finite (a profile exactly zero, or spanning more than the float
    range), the row fails with NonpositiveVarianceError.  Every other row is
    brought to unit scale by an exact power of two, so that the scale of the
    profile cannot overflow or underflow the dispersion.
    """
    if floor is not None:
        profile = np.maximum(profile, floor)
    rescaled = values * values
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rescaled /= profile
        peak = np.abs(rescaled).max(axis=-1)  # NaN and inf propagate: one pass finds both the retries and the scale
        for row in np.nonzero(~np.isfinite(peak) | (peak < _SMALLEST_PEAK))[0]:
            row_profile = np.broadcast_to(profile, rescaled.shape)[row]
            row_profile = np.ldexp(row_profile, -np.frexp(np.abs(row_profile).max())[1])
            rescaled[row] = values[row] * values[row] / row_profile
            peak[row] = np.abs(rescaled[row]).max()
            if not np.isfinite(peak[row]):
                failures[row] = NonpositiveVarianceError(
                    "fitted variance is exactly zero inside the window"
                    if (row_profile == 0.0).any()
                    else "fitted variance spans more than the floating-point range inside the window"
                )
                rescaled[row], peak[row] = 1.0, 1.0
    return _sanso(np.ldexp(rescaled, -np.frexp(peak)[1][:, None], out=rescaled), failures)


def _statistics(units: np.ndarray, window: SubsampleWindow, p_max: int) -> tuple[np.ndarray, ...]:
    """Q_std and Q_mod of each row of (R, q) unit-scale window values, and their (2, R) failures.

    Q_mod uses the profile of the row's AIC order in 1..p_max as is, with
    no positivity floor.  A failed row's statistic means nothing.
    """
    failures = np.full((2, len(units)), None)
    q_std = _sanso(units * units, failures[0])
    coefficients = _select(units, window, p_max)[2]
    return q_std, _corrected(units, _profiles(coefficients, window), None, failures[1]), failures


def _one(statistic, *args) -> float:
    """``statistic(*args, failures)`` on one row, :func:`_sanso` or :func:`_corrected`, or the row's failure raised."""
    failures = np.full(1, None)
    value = statistic(*args, failures)
    if failures[0] is not None:
        raise failures[0]
    return float(value[0])


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
    return math.sqrt(n / 2.0) * float(sup) / (n * float(mean))


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
    return _one(_sanso, np.square(window.slice_values(series))[None])


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
    if positivity == "error":
        report = check_positivity(fit)
        if not report.passed:
            raise NonpositiveVarianceError(
                f"fitted variance dips to {report.min_value:.6g} at t={report.t_min} "
                f"(positivity floor {report.floor:.6g}); "
                "clamp explicitly or refit with a lower order"
            )
    floor = None if positivity == "none" else fit.unit_floor  # a no-op once "error" has passed
    return _one(_corrected, v[None], fit.unit_profile(), floor)
