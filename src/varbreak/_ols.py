"""Nested least squares: every leading-column fit of one design from one QR, for a stack of responses.

This module owns the rules both AIC searches (the AR order in
:mod:`varbreak.armodel`, the profile order in :mod:`varbreak.variance_poly`)
and every fit share:

* one QR of the largest design serves the fits on all its leading columns;
* :func:`factorise` alone rejects a design with no more rows than columns,
  however short the input, as a ``SingularDesignError`` naming both;
* an order search takes the least AIC of a floored RSS, ties going to the
  smaller order (:meth:`NestedOls.aic_choice`);
* a fit forms each of its arrays once, and the RSS ladder only where an AIC
  search or ``fit_variance_poly`` reads it;
* the design is one m x K matrix shared by every row of (..., m) responses,
  or a stack (R, m, K) of designs, one per row; every row goes through the
  same BLAS and LAPACK calls as a lone series, so its fit does not depend on
  the rows stacked with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varbreak.errors import SingularDesignError

_EPS = np.finfo(np.float64).eps


def aic(rss, n: int, first: int) -> np.ndarray:
    """Gaussian AIC ``n*log(rss/n) + 2k`` along the last axis of ``rss``, k = first, first + 1, ... columns; 0 scores -inf."""
    k = np.arange(first, first + rss.shape[-1])
    with np.errstate(divide="ignore"):
        return n * np.log(rss / n) + 2.0 * k


@dataclass(frozen=True, eq=False)
class NestedOls:
    """Least-squares fits of y on the leading k columns of a design, k = 0..K, for each row of y.

    With ``design = Q R`` and ``z = Q.T y``, the fit on k columns has
    coefficients ``R[:k, :k]**-1 z[:k]`` and ``rss[k] = |y - Q z|**2 +
    sum_{i>=k} z_i**2``, a sum of nonnegative terms that, unlike
    ``|y|**2 - sum_{i<k} z_i**2``, does not cancel.  ``z`` is (..., K),
    ``rss`` (..., K + 1) or None, ``r`` (K, K) or (R, K, K) for a stack,
    and ``singular`` flags the rank-deficient designs of a stack.
    """

    r: np.ndarray
    z: np.ndarray
    singular: np.ndarray
    rss: np.ndarray | None

    def coefficients(self, k: int, rows=...) -> np.ndarray:
        """Coefficients (..., k) of the selected rows' fits on the first ``k`` columns; zero for a singular row."""
        r = self.r[:k, :k] if self.r.ndim == 2 else self.r[rows, :k, :k]
        return np.linalg.solve(r, self.z[rows, :k, None])[..., 0]

    def aic_choice(self, n: int, first: int, floor) -> tuple[np.ndarray, np.ndarray]:
        """Floored RSS (..., K + 1 - first) of the fits on ``first``..K columns, and each row's AIC column count.

        ``floor``, a scalar or one per row, keeps an exact fit comparable; ties go to fewer columns.
        """
        rss = np.maximum(self.rss[..., first:], floor)
        return rss, first + aic(rss, n, first).argmin(axis=-1)


def factorise(design: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin QR ``(q, r, singular)`` of one m x K design or of a stack (R, m, K) of designs.

    A column is dependent when ``|R_kk| <= eps * max(m, K) * max_j |R_jj|``,
    numpy's least-squares rank threshold; a rank-deficient design of a
    stack is flagged in ``singular`` and gets the identity as its ``r``.

    Raises
    ------
    SingularDesignError
        "``what`` has m rows for K columns" if m <= K, or if a shared design is rank deficient.
    """
    m, width = design.shape[-2:]
    if m <= width:
        raise SingularDesignError(f"{what} has {m} rows for {width} columns")
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    dependent = diag <= _EPS * max(m, width) * diag.max(axis=-1, initial=0.0, keepdims=True)
    singular = dependent.any(axis=-1)
    if design.ndim == 2 and singular:
        raise SingularDesignError(
            f"{what} is rank deficient: column {int(np.argmax(dependent))} of {width} "
            "depends numerically on the columns before it"
        )
    if singular.any():
        r[singular] = np.eye(width)
    return q, r, singular


def fit_factorised(factors: tuple[np.ndarray, ...], y: np.ndarray, ladder: bool = False) -> NestedOls:
    """Fit the (..., m) responses ``y`` on each leading sub-design of a :func:`factorise` result.

    ``ladder`` forms the RSS ladder; a row whose design is rank deficient gets a zero fit.
    """
    q, r, singular = factors
    z = np.matmul(np.swapaxes(q, -1, -2), y[..., None])
    if singular.any():
        z[singular] = 0.0
    rss = None
    if ladder:
        resid = np.matmul(q, z)[..., 0]
        np.subtract(y, resid, out=resid)
        rss = np.zeros((*z.shape[:-2], r.shape[-1] + 1))
        rss[..., :-1] = np.cumsum((z * z)[..., ::-1, 0], axis=-1)[..., ::-1]
        rss += np.matmul(resid[..., None, :], resid[..., None])[..., 0]
    return NestedOls(r=r, z=z[..., 0], singular=singular, rss=rss)

