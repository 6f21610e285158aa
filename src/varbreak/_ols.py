"""Nested least squares: every leading-column fit of one design from one QR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varbreak.errors import SingularDesignError

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class NestedOls:
    """Least-squares fits of y on the leading k columns of a design, k = 0..K.

    With the thin factorisation ``design = Q R`` and ``z = Q.T y``, the
    fit on the first k columns has coefficients ``R[:k, :k]**-1 z[:k]``
    and residual sum of squares ``rss[k] = |y - Q z|**2 + sum_{i>=k} z_i**2``,
    a sum of nonnegative terms that, unlike ``|y|**2 - sum_{i<k} z_i**2``,
    does not cancel.
    """

    r: np.ndarray
    z: np.ndarray
    rss: np.ndarray

    def coefficients(self, k: int) -> np.ndarray:
        """Coefficients of the fit on the first ``k`` columns."""
        return np.linalg.solve(self.r[:k, :k], self.z[:k])


def nested_ols(design: np.ndarray, y: np.ndarray, what: str) -> NestedOls:
    """Factorise ``design`` once and fit ``y`` on each of its leading sub-designs.

    Raises
    ------
    SingularDesignError
        If a column is numerically dependent on the columns before it,
        ``|R_kk| <= eps * max(m, K) * max_j |R_jj|`` for an m x K design,
        the default rank threshold of numpy's least-squares solver.
        ``what`` names the design in the message.
    """
    m, width = design.shape
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r))
    dependent = diag <= _EPS * max(m, width) * np.max(diag, initial=0.0)
    if np.any(dependent):
        k = int(np.argmax(dependent))
        raise SingularDesignError(
            f"{what} is rank deficient: column {k} of {width} depends numerically "
            "on the columns before it"
        )
    z = q.T @ y
    resid = y - q @ z
    tail = np.cumsum((z * z)[::-1])[::-1]
    rss = float(resid @ resid) + np.append(tail, 0.0)
    return NestedOls(r=r, z=z, rss=rss)
