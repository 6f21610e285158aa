"""Literal, loop-based re-implementations of the statistics, of the
AIC order choice and of the AR(1) recursion, a simulation of the
corrected statistic's limit law, and the row-by-row CSV loader that
``load_csv``'s one column-wise conversion replaced.

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
from varbreak.errors import CsvParseError, DateOrderError


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


def corrected_statistic_literal(values, offset, q, n, coefficients, center):
    """Variance-rescaled bridge statistic with a polynomial profile."""

    def g2(t):
        return polyval_naive(coefficients, t / n - center)

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

