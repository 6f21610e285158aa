"""CSV ingestion for FRED-style series exports, and differencing.

Files are expected comma-separated with a header, a DATE column of
ISO-8601 dates (stored as YYYY-MM-DD) and one value column; missing
observations marked "." (or empty) are dropped and counted, never
interpolated.  Loading is one pass that parses each date once.
"""

from __future__ import annotations

import csv
import datetime
import math
import operator
from dataclasses import dataclass

import numpy as np

from varbreak.errors import CsvParseError, DateOrderError

MISSING_MARKERS = (".", "")


@dataclass(frozen=True, eq=False)
class SeriesFile:
    """An observed series with its dates and provenance.

    Dates are ISO-8601 strings, strictly increasing, and are never
    interpreted beyond ordering; ``frequency`` only informs the default
    AR order cap.
    """

    dates: tuple[str, ...]
    values: np.ndarray
    frequency: str = "unknown"
    source_id: str = ""
    dropped_missing: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != len(self.dates):
            raise ValueError(
                f"need one value per date, got {arr.size} values for {len(self.dates)} dates"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("series values contain NaN or infinite entries")
        if not all(map(operator.lt, self.dates, self.dates[1:])):  # pairwise in C, no frame per pair
            raise DateOrderError("dates are not strictly increasing")
        if self.frequency not in ("monthly", "quarterly", "unknown"):
            raise ValueError(f"unknown frequency {self.frequency!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _checked(cls, **fields) -> SeriesFile:
        """A series from all its fields, its dates known to increase and its float64 values finite; checks nothing."""
        fields["values"].flags.writeable = False
        series = object.__new__(cls)
        series.__dict__.update(fields)
        return series

    @property
    def n(self) -> int:
        return int(self.values.size)


def _frequency(ordinals) -> str:
    """Classify the median gap of day ordinals: ~30 days monthly, ~91 quarterly."""
    if len(ordinals) < 3:
        return "unknown"
    gap = float(np.median(np.diff(ordinals)))
    if 28 <= gap <= 31:
        return "monthly"
    if 84 <= gap <= 96:
        return "quarterly"
    return "unknown"


def load_csv(path, *, date_column: str = "DATE", value_column: str | None = None) -> SeriesFile:
    """Parse a FRED-style CSV export into a :class:`SeriesFile`.

    Parameters
    ----------
    path : str or os.PathLike
        CSV file with a header row.
    date_column : str
        Header name of the date column.
    value_column : str, optional
        Header name of the value column; defaults to the first column
        other than the date column, whose name becomes ``source_id``.
        Rows whose value is one of :data:`MISSING_MARKERS` are dropped
        and counted in ``dropped_missing``.

    Raises
    ------
    CsvParseError
        For a missing or malformed header, or a malformed or unparseable
        row; the message carries the 1-based number of the physical
        line the row ends on.
    DateOrderError
        If dates are not strictly increasing.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
            if date_column not in header:
                raise CsvParseError(f"no {date_column!r} column in header {header}", line=1)
            date_idx = header.index(date_column)
            if value_column is None:
                value_column = next((name for name in header if name != date_column), None)
                if value_column is None:
                    raise CsvParseError("no value column besides the date column", line=1)
            if value_column not in header:
                raise CsvParseError(f"no {value_column!r} column in header {header}", line=1)
            value_idx = header.index(value_column)

            width = len(header)
            fromisoformat, isfinite = datetime.date.fromisoformat, math.isfinite  # looked up once, not per row
            dates: list[str] = []
            values: list[float] = []
            ordinals: list[int] = []  # of the kept rows, for the frequency
            dropped = 0
            previous = 0  # ordinal of the last dated row; a real date's is at least 1
            for row in reader:
                raw_date = row[date_idx].strip() if len(row) == width else ""
                if not raw_date:  # only then can the row be blank
                    if not "".join(row).strip():
                        continue
                    if len(row) != width:
                        raise CsvParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
                try:
                    parsed = fromisoformat(raw_date)
                except ValueError:
                    raise CsvParseError(f"unparseable date {raw_date!r}", line=reader.line_num) from None
                ordinal = parsed.toordinal()
                if ordinal <= previous:
                    raise DateOrderError(f"line {reader.line_num}: date {raw_date} does not increase past "
                                         f"{datetime.date.fromordinal(previous).isoformat()}")
                previous = ordinal
                raw_value = row[value_idx].strip()
                if raw_value in MISSING_MARKERS:
                    dropped += 1
                    continue
                try:
                    value = float(raw_value)
                except ValueError:
                    raise CsvParseError(f"unparseable value {raw_value!r}", line=reader.line_num) from None
                if not isfinite(value):
                    raise CsvParseError(f"non-finite value {raw_value!r}", line=reader.line_num)
                canonical = len(raw_date) == 10 and raw_date[4] == raw_date[7] == "-"  # YYYY-MM-DD
                dates.append(raw_date if canonical else parsed.isoformat())
                values.append(value)
                ordinals.append(ordinal)
        except StopIteration:  # from reading the header
            raise CsvParseError("file is empty", line=1) from None
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from None

    return SeriesFile._checked(
        dates=tuple(dates),
        values=np.array(values, dtype=np.float64),
        frequency=_frequency(ordinals),
        source_id=value_column,
        dropped_missing=dropped,
    )


def difference(series: SeriesFile, order: int = 1) -> SeriesFile:
    """Apply first differences ``order`` times, shifting dates accordingly."""
    if order < 1:
        raise ValueError(f"difference order must be at least 1, got {order}")
    if series.n <= order:
        raise ValueError(f"series of length {series.n} is too short to difference {order} times")
    with np.errstate(over="ignore", invalid="ignore"):  # a difference past the float range is inf, then NaN
        values = np.diff(series.values, n=order)
    if not np.isfinite(values).all():
        raise ValueError(f"differences of order {order} leave the float range")
    return SeriesFile._checked(
        dates=series.dates[order:],
        values=values,
        frequency=series.frequency,
        source_id=series.source_id,
        dropped_missing=series.dropped_missing,
    )
