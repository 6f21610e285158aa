"""Cumulative-sums-of-squares statistics for abrupt variance breaks.

Over q residuals, with ``C_k = sum_{t<=k} u_t**2`` and ``eta = q**-1 sum u_t**4``:

* :func:`statistic_it` -- Inclan and Tiao (1994),
  ``sup_k |sqrt(q/2) * (C_k/C_q - k/q)|``, sized for i.i.d. Gaussian errors;
* :func:`statistic_sanso`, and :func:`statistic_subsample` over a window --
  Sansó, Aragó and Carrion (2004),
  ``sup_k |q**-0.5 * (C_k - (k/q) C_q) / sqrt(eta - (C_q/q)**2)|``, valid
  for non-Gaussian errors;
* :func:`statistic_corrected` -- the same over a fit's window, on the squares
  divided by its polynomial variance profile ``g_hat**2(t/n)``, which removes
  a smooth drift in the variance before testing for an abrupt break.

The first three converge under their null to ``sup_s |W(s)|``, W a Brownian
bridge (:mod:`varbreak.nulldist`).  When the profile is fitted on the same
sample and the true g lies in the fitted class of order p, the corrected
partial sums converge instead to the bridge of the partial sums of
``e - P(g e)/g``, e white noise and P the projection onto the powers of
rescaled time up to p: a profile-weighted generalized Brownian bridge, the
order-p bridge of MacNeill (1978) for constant g.  Its quantiles lie well
below the Kolmogorov ones, so there the Kolmogorov rule is conservative.

Failure maps: all four share one bridge kernel, :func:`_bridge`, and the
last three run row-wise over a block of series, the public functions being
one-row calls.  Each failure rule is tested in one place, which records a
row's first :class:`VarbreakError` in a ``{row: error}`` map; a one-row call
raises it.  A failed row's statistic means nothing.  The row kernel,
:func:`_statistics`, divides by each row's AIC profile as is ("none", the
grid) or floored by :func:`_floor`, the floor rule's one owner ("floor").

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
from varbreak.series import ResidualSeries, SubsampleWindow, _true_text
from varbreak.variance_poly import POS_FLOOR_FRAC, VariancePolyFit, _profiles, _select, check_positivity

POSITIVITY_MODES = ("error", "clamp", "none")

_EPS = float(np.finfo(np.float64).eps)


def _bridge(squares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sup, mean, dispersion) of each row of (..., q) squares, every reduction along the row.

    ``sup = max_k |D_k - k D_q / q|`` over the partial sums D_k of the
    deviations from the mean, and the dispersion is their mean square.
    Centring first avoids the cancellation of the literal forms when the
    squares nearly agree; ``k D_q / q`` removes the rounding in the mean.
    """
    q = squares.shape[-1]
    mean = squares.sum(axis=-1, keepdims=True) / q
    deviations = squares - mean
    dispersion = np.square(deviations).sum(axis=-1) / q
    bridge = deviations.cumsum(axis=-1, out=deviations)  # in place: blocks stay a few arrays
    bridge -= np.arange(1, q + 1) * (bridge[..., -1:] / q)
    return np.abs(bridge, out=bridge).max(axis=-1), mean[..., 0], dispersion


def _sanso(squares: np.ndarray, failures: dict) -> np.ndarray:
    """Each row's ``sup / sqrt(q * dispersion)``; a row with constant squares fails with ZeroDispersionError.

    The squares count as constant when the dispersion is within the rounding of their mean, ``(q * eps * mean)**2``.
    """
    sup, mean, dispersion = _bridge(squares)
    q = squares.shape[-1]
    constant = dispersion <= (q * _EPS * mean) ** 2
    for row in constant.nonzero()[0].tolist():
        if row not in failures:
            failures[row] = ZeroDispersionError(
                f"squared residuals are empirically constant (dispersion {dispersion[row]:.3g}); "
                "the statistic is undefined"
            )
    # adding the mask keeps a constant row from 0/0 and adds an exact 0 to every other row
    return sup / np.sqrt(dispersion + constant) / math.sqrt(q)


def _corrected(squares: np.ndarray, profile: np.ndarray, failures: dict) -> np.ndarray:
    """:func:`_sanso` of each row of ``squares / profile``, every profile row scaled as a fit to unit-scale squares.

    :func:`_statistics` and :func:`statistic_corrected` pass such profiles, so a row's quotients are not finite only
    where its profile is at or near zero, and the row fails with NonpositiveVarianceError.  Every row is then brought
    to unit scale by an exact power of two, so the profile's scale cannot overflow or underflow the dispersion.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rescaled = squares / profile
    peak = np.abs(rescaled).max(axis=-1)  # NaN and inf propagate: one pass finds both the failures and the scale
    for row in np.nonzero(~np.isfinite(peak))[0].tolist():
        failures[row] = NonpositiveVarianceError(
            "fitted variance is exactly zero inside the window"
            if (np.broadcast_to(profile, rescaled.shape)[row] == 0.0).any()
            else "fitted variance spans more than the floating-point range inside the window"
        )
        rescaled[row], peak[row] = 1.0, 1.0
    return _sanso(np.ldexp(rescaled, -np.frexp(peak)[1][:, None], out=rescaled), failures)


def _floor(profiles: np.ndarray, mean_sq) -> np.ndarray:
    """The positivity floor rule, its one owner: each profile row raised to ``POS_FLOOR_FRAC`` times its mean square."""
    return np.maximum(profiles, POS_FLOOR_FRAC * np.reshape(mean_sq, (-1, 1)))


def _statistics(squares: np.ndarray, window: SubsampleWindow, p_max: int, positivity: str = "none") -> tuple:
    """Q_std and Q_mod of each row of (R, q) squares of unit-scale window values, their failure maps, and the search.

    The search is :func:`varbreak.variance_poly._select`'s.  Q_mod divides by the profile as is under "none"; "floor"
    floors it by :func:`_floor` and adds what a report reads: each row's mean square, least profile value and its index.
    """
    failures_std, failures_mod = {}, {}
    q_std = _sanso(squares, failures_std)
    search = _select(squares, window, p_max)
    profiles = _profiles(search[2], window)
    if positivity == "floor":
        index = profiles.argmin(axis=-1)
        search += (squares.sum(axis=-1) / squares.shape[-1], profiles[np.arange(index.size), index], index)
        profiles = _floor(profiles, search[4])
    return q_std, _corrected(squares, profiles, failures_mod), failures_std, failures_mod, search


def _dip_error(fit: VariancePolyFit, least: float, t: int) -> NonpositiveVarianceError:
    """The strict positivity rule's error: the fit's profile dips to ``least`` at ``t``, at or below its floor."""
    power = 2 * fit.exponent
    return NonpositiveVarianceError(
        f"fitted variance dips to {_true_text(least, power)} at t={t} "
        f"(positivity floor {_true_text(fit.unit_floor, power)}); clamp explicitly or refit with a lower order"
    )


def _one(statistic, *args) -> float:
    """``statistic(*args, failures)`` on one row, or the row's failure raised."""
    failures = {}
    value = statistic(*args, failures)
    if failures:
        raise failures[0]
    return float(value[0])


def statistic_it(series: ResidualSeries) -> float:
    """The Inclan-Tiao statistic, ``sqrt(n/2) * sup / (n * mean)`` from :func:`_bridge`.

    Raises
    ------
    DegenerateSeriesError
        If every residual is zero, so C_n = 0.
    """
    n = series.n
    sup, mean, _ = _bridge(SubsampleWindow.full(n).squares(series))
    if mean <= 0.0:
        raise DegenerateSeriesError("all residuals are zero; the statistic is undefined")
    return math.sqrt(n / 2.0) * float(sup) / (n * float(mean))


def statistic_sanso(series: ResidualSeries) -> float:
    """The Sansó-Aragó-Carrion statistic: :func:`statistic_subsample` on the full sample.

    Raises
    ------
    ZeroDispersionError
        If the squared residuals are empirically constant.
    """
    return statistic_subsample(series, SubsampleWindow.full(series.n))


def statistic_subsample(series: ResidualSeries, window: SubsampleWindow) -> float:
    """The Sansó-Aragó-Carrion statistic over a window: every sum runs over it, every n is q.

    Raises
    ------
    WindowBoundsError
        If the window does not match the series.
    ZeroDispersionError
        If the windowed squared residuals are empirically constant.
    """
    return _one(_sanso, window.squares(series)[None])


def statistic_corrected(series: ResidualSeries, fit: VariancePolyFit, *, positivity: str = "error") -> float:
    """The corrected statistic over the window of ``fit``; a positive constant profile gives the uncorrected one.

    The positivity rule: Q_mod divides the squares by the profile, so the profile must stay
    above the floor of :func:`check_positivity`, ``POS_FLOOR_FRAC`` times the window mean
    square, at every t of the window; "clamp" applies :func:`_floor`, as the row kernel's "floor" does.

    Parameters
    ----------
    positivity : {"error", "clamp", "none"}
        When the profile dips to or below the floor inside the window: raise
        (default), floor the profile at it, or use the profile as is.

    Raises
    ------
    WindowBoundsError
        If the fit's window was built for a series of another length.
    NonpositiveVarianceError
        Under "error" when the profile dips to or below the floor; under
        every mode when a rescaled square is not finite: an entry of the profile
        is zero, or so far below its peak that scaling by the peak flushes it to zero.
    ZeroDispersionError
        If the rescaled squares are empirically constant.
    """
    if positivity not in POSITIVITY_MODES:
        raise ValueError(f"positivity must be one of {POSITIVITY_MODES}, got {positivity!r}")
    squares = fit.window.squares(series)[None]
    if positivity == "error" and (t_min := check_positivity(fit)) is not None:
        raise _dip_error(fit, fit.unit_profile.min(), t_min)
    profile = fit.unit_profile if positivity == "none" else _floor(fit.unit_profile, fit.unit_mean_sq)
    # a profile from outside the package may have any scale: the power of two of its peak brings it to unit scale,
    # and an entry that this flushes to zero is no zero of the fit: NaN fails its row as out of the float range
    scaled = np.ldexp(profile, -np.frexp(np.abs(profile).max())[1])
    scaled[(scaled == 0.0) & (profile != 0.0)] = np.nan
    return _one(_corrected, squares, scaled)
