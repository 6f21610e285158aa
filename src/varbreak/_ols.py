"""Nested least squares: every leading-column fit of one design from one QR, for a stack of responses.

Its rules: :func:`factorise` alone rejects a design with no more rows than columns,
however short the input, as a ``SingularDesignError`` naming both, and an AIC order
search takes the least AIC of a floored RSS, ties going to the smaller order.  A fit
forms each of its arrays once, and the RSS ladder only where it is read: by the two
AIC searches and ``fit_variance_poly``; an AR fit reads its coefficients alone.
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

    With the thin factorisation ``design = Q R`` and ``z = Q.T y``, the
    fit on the first k columns has coefficients ``R[:k, :k]**-1 z[:k]``
    and residual sum of squares ``rss[k] = |y - Q z|**2 + sum_{i>=k} z_i**2``,
    a sum of nonnegative terms that, unlike ``|y|**2 - sum_{i<k} z_i**2``,
    does not cancel.  ``z`` is (..., K) and ``rss`` (..., K + 1) over the
    rows of y, or None where the fit was not asked for that ladder.
    ``r`` is (K, K) for a design shared by every row, or (R, K, K) for a
    stack of designs, one per row; ``singular`` flags the rows of a stack
    whose design is rank deficient.
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
    """Thin QR ``(q, r, singular)`` of one m x K design or of a stack (R, m, K) of designs, one per row.

    A column depends numerically on those before it when
    ``|R_kk| <= eps * max(m, K) * max_j |R_jj|``, the default rank
    threshold of numpy's least-squares solver.  ``singular`` flags the
    designs of a stack that are rank deficient; their ``r`` is the identity.

    Raises
    ------
    SingularDesignError
        If the design has no more rows than columns (no residual degree
        of freedom), with the message "``what`` has m rows for K columns";
        or if a shared design is rank deficient.
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

    The RSS ladder is formed only with ``ladder``: an AIC search reads it, a plain fit does not.
    A row of a stack whose design is rank deficient gets a zero fit.
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


def nested_ols(design: np.ndarray, y: np.ndarray, what: str, ladder: bool = False) -> NestedOls:
    """Factorise ``design`` once and fit ``y`` on each of its leading sub-designs; see :func:`fit_factorised`.

    ``design`` is one m x K matrix shared by every row of the (..., m)
    responses ``y``, or a stack (R, m, K) of designs for (R, m) responses,
    one per row.  Every row goes through the same BLAS and LAPACK calls as
    a lone series, so its fit does not depend on the rows stacked with it.
    The errors are those of :func:`factorise`; a row of a stack whose
    design is rank deficient is flagged instead, and its fit is zero.
    """
    return fit_factorised(factorise(design, what), y, ladder)
