"""Literal, loop-based re-implementations of the statistics, of the
AIC order choice and of the AR(1) recursion, the ``varbreak test``
pipeline composed from them, a simulation of the corrected statistic's
limit law, and the row-by-row CSV loader that ``load_csv``'s one
column-wise conversion replaced.

The statistics are independent of the package code.  The
re-implementations are deliberately unoptimized: every partial sum is
re-summed from scratch, every polynomial evaluated by naive powers.
Tests compare the fast implementations against them, and the simulated
limit law against the empirical law of the corrected statistic.  The
literal loader builds the package's checked :class:`SeriesFile` and
raises its errors, so that a differential test can compare both.
"""

import csv
import datetime
import math

import numpy as np

from varbreak.dataio import MISSING_MARKERS, SeriesFile
from varbreak.errors import CsvParseError, DateOrderError, NonpositiveVarianceError, SingularDesignError


def cumsums_bruteforce(values, offset, length):
    """Partial sums of squares, re-summed from scratch at every k."""
    out = []
    for k in range(1, length + 1):
        total = 0.0
        for t in range(offset + 1, offset + k + 1):  # 1-based t
            total += values[t - 1] ** 2
        out.append(total)
    return out


def it_statistic_literal(values):
    n = len(values)
    cumsums = cumsums_bruteforce(values, 0, n)
    best = 0.0
    for k in range(1, n + 1):
        best = max(best, abs(cumsums[k - 1] / cumsums[n - 1] - k / n))
    return math.sqrt(n / 2.0) * best


def subsample_statistic_literal(values, offset, q):
    cumsums = cumsums_bruteforce(values, offset, q)
    eta = 0.0
    for t in range(offset + 1, offset + q + 1):
        eta += values[t - 1] ** 4
    eta /= q
    denominator = math.sqrt(eta - (cumsums[q - 1] / q) ** 2)
    best = 0.0
    for k in range(1, q + 1):
        best = max(best, abs(cumsums[k - 1] - (k / q) * cumsums[q - 1]) / denominator)
    return best / math.sqrt(q)


def sanso_statistic_literal(values):
    return subsample_statistic_literal(values, 0, len(values))


def polyval_naive(coefficients, x):
    return sum(a * x**i for i, a in enumerate(coefficients))


def corrected_statistic_literal(values, offset, q, n, coefficients, center, floor=None):
    """Variance-rescaled bridge statistic with a polynomial profile, floored at ``floor`` if one is given."""

    def g2(t):
        value = polyval_naive(coefficients, t / n - center)
        return value if floor is None else max(value, floor)

    cumsums = []
    for k in range(1, q + 1):
        total = 0.0
        for t in range(offset + 1, offset + k + 1):
            total += values[t - 1] ** 2 / g2(t)
        cumsums.append(total)
    eta = 0.0
    for t in range(offset + 1, offset + q + 1):
        eta += values[t - 1] ** 4 / g2(t) ** 2
    eta /= q
    denominator = math.sqrt(eta - (cumsums[q - 1] / q) ** 2)
    best = 0.0
    for k in range(1, q + 1):
        best = max(best, abs(cumsums[k - 1] - (k / q) * cumsums[q - 1]) / denominator)
    return best / math.sqrt(q)


def ar1_literal(u):
    """Rows x_t = 0.4*x_{t-1} + u_t with x_0 = 0, one Python float at a time."""
    rows = []
    for row in np.atleast_2d(u).tolist():
        x = 0.0
        path = []
        for v in row:
            x = 0.4 * x + v
            path.append(x)
        rows.append(path)
    return np.array(rows, dtype=np.float64).reshape(np.shape(u))


def aic_choice_literal(rss, n, first, floor):
    """Index i minimizing ``n*log(max(rss[i], floor)/n) + 2*(first + i)``, scored one order at a time.

    Only a strictly smaller score replaces the best so far, so ties keep
    the smaller order.  ``first`` is the column count of ``rss[0]``'s fit;
    an RSS of 0 under a zero floor scores -inf.
    """
    chosen = 0
    best = np.inf
    for i, r in enumerate(rss):
        with np.errstate(divide="ignore"):
            score = n * np.log(max(r, floor) / n) + 2.0 * (first + i)
        if score < best:
            best = score
            chosen = i
    return chosen


def poly_aic_scores_literal(rss, q):
    """``(p, q*log(RSS/q) + 2(p+1))`` for p = 1, 2, ..., one order at a time; an RSS of 0 scores -inf."""
    with np.errstate(divide="ignore"):
        return tuple((p, float(q * np.log(r / q) + 2.0 * (p + 1))) for p, r in enumerate(rss, 1))


#: Relative gap under which two AIC scores, or a profile minimum and its floor, are a near tie.
NEAR_TIE = 1e-9


def _lstsq_literal(design, y, what):
    """Coefficients and residuals of ``y`` on ``design`` by ``np.linalg.lstsq``; SingularDesignError for a design
    with no more rows than columns or of lower rank.

    The first column is the constant.  The others are centred on their means and scaled to unit norm first, an
    exact change of basis that keeps the solve accurate: an SVD solve, unlike a QR, loses accuracy to columns of
    unequal scale, such as an intercept beside lags of size 1e-5, and to nearly parallel ones, such as an
    intercept beside lags of levels far from zero.
    """
    rows, columns = design.shape
    if rows <= columns:
        raise SingularDesignError(f"{what} has {rows} rows for {columns} columns")
    means = design.mean(axis=0) * (np.arange(columns) > 0)
    centred = design - means
    norms = np.sqrt((centred**2).sum(axis=0))
    norms[norms == 0.0] = 1.0
    beta, _, rank, _ = np.linalg.lstsq(centred / norms, y, rcond=None)
    if rank < columns:
        raise SingularDesignError(f"{what} is rank deficient")
    beta /= norms
    return beta - np.concatenate([[beta @ means], np.zeros(columns - 1)]), y - centred @ beta


def _aic_literal(rss, n, first, floor, ties, what):
    """:func:`aic_choice_literal`, recording ``what`` in ``ties`` when its two lowest scores are a near tie.

    A score's rounding scales with n, the factor of its logarithm, so the gap is taken relative to n as well.
    """
    scores = sorted(n * math.log(max(r, floor) / n) + 2.0 * (first + i) for i, r in enumerate(rss))
    if len(scores) > 1 and scores[1] - scores[0] <= NEAR_TIE * max(abs(scores[0]), abs(scores[1]), n):
        ties.append(what)
    return aic_choice_literal(rss, n, first, floor)


def pipeline_literal(series, config, ties=None):
    """``run_test_pipeline`` from the stage oracles, in the true units of ``series``.

    Differences with ``np.diff``; chooses the AR order by AIC over ``np.linalg.lstsq`` fits with an intercept on
    the common sample, capped at 12 (monthly), 8 (quarterly) or ``round(4*(n/100)**0.25)`` and at ``(n - 2) // 2``;
    fits AR(m) with an intercept; takes the window ``floor(n**gamma)`` from ``floor(offset * n)``; chooses the
    profile order in ``1..min(p_max, max(1, q - 2))`` by AIC with the RSS floored at ``1e-12 * mean(u**4)``; then
    raises NonpositiveVarianceError where the profile dips to or below ``0.01 * mean(u**2)``, or under clamp
    floors it there; and computes Q_std, Q_mod and their ``scipy.special.kolmogorov`` p-values.  It raises
    SingularDesignError and NonpositiveVarianceError in the package's stage order.

    Each near tie of an AIC choice, or of the profile minimum with its floor, is named in the list ``ties``: at
    one, two correct routines may decide either way.  ``cancellation``, max|x| / max|u| over the series the AR
    model is fitted to and its residuals, is the factor by which forming the residuals magnifies the rounding
    of the data.
    """
    from scipy.special import kolmogorov  # here, not at the top: the benchmark imports this module and measures memory

    ties = [] if ties is None else ties
    x = np.diff(series.values, n=config.diff_order) if config.diff_order else np.array(series.values)

    n = len(x)
    order = config.ar_order
    if order is None:
        cap = {"monthly": 12, "quarterly": 8}.get(series.frequency, round(4 * (n / 100) ** 0.25))
        cap = max(0, min(cap, (n - 2) // 2))
        rss = []
        for m in range(cap + 1):  # responses t = cap+1..n for every m
            design = np.array([[1.0] + [x[t - i] for i in range(1, m + 1)] for t in range(cap, n)])
            residuals = _lstsq_literal(design, x[cap:], f"AR({m}) design")[1]
            rss.append(float(residuals @ residuals))
        order = _aic_literal(rss, n - cap, 1, np.finfo(np.float64).tiny, ties, "ar-aic")
    design = np.array([[1.0] + [x[t - i] for i in range(1, order + 1)] for t in range(order, n)])
    u = _lstsq_literal(design, x[order:], f"AR({order}) design")[1].tolist()

    n = len(u)
    offset, q = math.floor(config.offset_fraction * n), math.floor(n**config.gamma)
    window = u[offset : offset + q]
    center = (2.0 * offset / n + q / n) / 2.0
    q_std = subsample_statistic_literal(u, offset, q)

    times = [t / n - center for t in range(offset + 1, offset + q + 1)]
    squares = np.array([v**2 for v in window])
    aic_floor = 1e-12 * sum(v**4 for v in window) / q
    fits = []
    for p in range(1, min(config.p_max, max(1, q - 2)) + 1):
        design = np.array([[r**i for i in range(p + 1)] for r in times])
        beta, residuals = _lstsq_literal(design, squares, f"order {p} design")
        fits.append((beta.tolist(), float(residuals @ residuals)))
    coefficients = fits[_aic_literal([rss for _, rss in fits], q, 2, aic_floor, ties, "poly-aic")][0]

    profile = [polyval_naive(coefficients, r) for r in times]
    floor = 0.01 * sum(v**2 for v in window) / q
    if abs(min(profile) - floor) <= NEAR_TIE * floor:
        ties.append("floor")
    floored = min(profile) <= floor
    if floored and not config.clamp:
        raise NonpositiveVarianceError(f"fitted variance dips to {min(profile)}")
    q_mod = corrected_statistic_literal(u, offset, q, n, coefficients, center, floor if config.clamp else None)

    statistics = (q_std, q_mod)
    return {
        "cancellation": float(np.abs(x).max() / max(abs(v) for v in u)),
        "ar_order": order,
        "poly_order": len(coefficients) - 1,
        "statistics": statistics,
        "p_values": tuple(float(kolmogorov(s)) for s in statistics),
        "reject": tuple(s > config.rule.critical_value for s in statistics),
        "floored": floored,
    }


def generalized_bridge_quantile(
    order, profile, level=0.95, *, m=2000, replications=4000, seed=0, batch=500
):
    """Quantile of sup|B| for the profile-weighted order-p generalized bridge.

    Under the null, with the variance profile g fitted on the same sample
    by a polynomial class that contains g, n**-0.5 times the partial sums
    of u**2/g_hat - mean converge to the bridge of the partial sums of
    ``e - P(g e)/g``, where ``e`` is white noise and ``P`` the unweighted
    projection onto the powers 1, r, ..., r**order (MacNeill 1978, Ann.
    Statist. 6:422-433, for constant g).  Each replication draws m
    Gaussian increments dW on r = 1/m, ..., 1, forms
    ``z = dW - P(g dW)/g``, centres it and takes
    ``max|cumsum(z)| / (sqrt(m) * sd(z))``.  Order 0 with a constant
    profile gives the discretised Kolmogorov law.  Uses numpy only.
    """
    rng = np.random.default_rng(seed)
    r = np.arange(1, m + 1) / m
    g = np.asarray(profile(r), dtype=np.float64) * np.ones(m)
    basis, _ = np.linalg.qr(np.vander(r - 0.5, order + 1, increasing=True))
    sups = []
    for start in range(0, replications, batch):
        dw = rng.standard_normal((min(batch, replications - start), m))
        z = dw - ((dw * g) @ basis) @ basis.T / g
        z -= z.mean(axis=1, keepdims=True)
        walk = np.cumsum(z, axis=1)
        sups.append(np.max(np.abs(walk), axis=1) / (math.sqrt(m) * z.std(axis=1)))
    return float(np.quantile(np.concatenate(sups), level))


def _infer_frequency_literal(dates):
    """Classify the median day gap: ~30 days monthly, ~91 quarterly."""
    if len(dates) < 3:
        return "unknown"
    ordinals = [datetime.date.fromisoformat(d).toordinal() for d in dates]
    gap = float(np.median(np.diff(ordinals)))
    if 28 <= gap <= 31:
        return "monthly"
    if 84 <= gap <= 96:
        return "quarterly"
    return "unknown"


def load_csv_literal(path, *, date_column="DATE", value_column=None):
    """The loader that ``load_csv`` replaced, row by row.

    It tests each row for blankness with a generator, stores
    ``isoformat()`` of every parsed date, parses every date a second time
    for the frequency, and builds the public :class:`SeriesFile`, which
    checks the date order again.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise CsvParseError("file is empty", line=1) from None
        if date_column not in header:
            raise CsvParseError(f"no {date_column!r} column in header {header}", line=1)
        date_idx = header.index(date_column)
        if value_column is None:
            candidates = [name for name in header if name != date_column]
            if not candidates:
                raise CsvParseError("no value column besides the date column", line=1)
            value_column = candidates[0]
        if value_column not in header:
            raise CsvParseError(f"no {value_column!r} column in header {header}", line=1)
        value_idx = header.index(value_column)

        dates: list[str] = []
        values: list[float] = []
        dropped = 0
        previous: datetime.date | None = None
        for row in reader:
            lineno = reader.line_num  # the record's last physical line
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=lineno
                )
            raw_date = row[date_idx].strip()
            try:
                parsed = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise CsvParseError(f"unparseable date {raw_date!r}", line=lineno) from None
            if previous is not None and parsed <= previous:
                raise DateOrderError(
                    f"line {lineno}: date {raw_date} does not increase past {previous.isoformat()}"
                )
            raw_value = row[value_idx].strip()
            if raw_value in MISSING_MARKERS:
                dropped += 1
                previous = parsed
                continue
            try:
                value = float(raw_value)
            except ValueError:
                raise CsvParseError(f"unparseable value {raw_value!r}", line=lineno) from None
            if not math.isfinite(value):
                raise CsvParseError(f"non-finite value {raw_value!r}", line=lineno)
            dates.append(parsed.isoformat())
            values.append(value)
            previous = parsed

    return SeriesFile(
        dates=tuple(dates),
        values=np.array(values, dtype=np.float64),
        frequency=_infer_frequency_literal(tuple(dates)),
        source_id=value_column,
        dropped_missing=dropped,
    )

