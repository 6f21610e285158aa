"""CSV ingestion for FRED-style series exports, and differencing.

Files are expected comma-separated with a header, a DATE column of
ISO-8601 dates (stored as YYYY-MM-DD) and one value column; missing
observations marked "." (or empty) are dropped and counted, never
interpolated.  :func:`load_csv` converts a well-formed file a column at a
time and reads any other row by row, the loop that words every load error.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
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

    The file is read once.  One without quotes, lone carriage returns, NULs
    or lines past ``csv.field_size_limit()``, whose rows all parse, with
    canonical YYYY-MM-DD dates, is converted a column at a time; any other
    goes through ``csv.reader`` row by row, the only code that words an error.

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
        For a missing or malformed header, a malformed or unparseable
        row, or a byte that is not UTF-8; the message carries the 1-based
        number of the physical line the row ends on, or the byte is on.
    DateOrderError
        If dates are not strictly increasing.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # as utf-8-sig reads it, with file offsets in an error
    except UnicodeDecodeError as exc:  # the rows before the byte are read first: an error of theirs wins
        fields = _read_rows(_lines_before(data, exc), date_column, value_column)
    else:
        fields = _read_columns(text, date_column, value_column)
        fields = fields or _read_rows(io.StringIO(text, newline=""), date_column, value_column)
    dates, values, ordinals, source_id, dropped = fields
    return SeriesFile._checked(
        dates=tuple(dates),
        values=np.array(values, dtype=np.float64),
        frequency=_frequency(ordinals),
        source_id=source_id,
        dropped_missing=dropped,
    )


def _read_columns(text: str, date_column: str, value_column: str | None) -> tuple | None:
    """:func:`_read_rows` of ``text`` a column at a time in C-level calls, or None where that loop must read it."""
    text = text.replace("\r\n", "\n")
    lines = text.removesuffix("\n").split("\n")  # csv.reader's rows, but [''] for its [] of an empty line
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or "\0" in text or len(text) > limit and max(map(len, lines)) > limit:
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    if value_column is None:
        value_column = next((name for name in header if name != date_column), None)
    width, rows = len(header), lines[1:]
    if date_column not in header or value_column not in header:
        return None
    if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
        return None  # a ragged or empty row, or no row at all
    cells = ",".join(rows).split(",")  # width cells a row
    dates = list(map(str.strip, cells[header.index(date_column) :: width]))
    joined = "".join(dates)  # no date form parses past 10 characters, so none of 10N is shorter
    if len(joined) != 10 * len(dates) or not joined[4::10] == joined[7::10] == "-" * len(dates):
        return None  # a blank row, or a date not written YYYY-MM-DD
    raw_values = list(map(str.strip, cells[header.index(value_column) :: width]))
    dropped = sum(map(raw_values.count, MISSING_MARKERS))
    try:
        ordinals = list(map(datetime.date.toordinal, map(datetime.date.fromisoformat, dates)))
        increasing = all(map(operator.lt, ordinals, ordinals[1:]))  # over the dropped rows too
        if dropped:
            kept = [value not in MISSING_MARKERS for value in raw_values]
            dates, raw_values, ordinals = (list(itertools.compress(c, kept)) for c in (dates, raw_values, ordinals))
        values = list(map(float, raw_values))
    except ValueError:
        return None
    if not (increasing and all(map(math.isfinite, values))):
        return None
    return dates, values, ordinals, value_column, dropped


def _lines_before(data: bytes, exc: UnicodeDecodeError):
    """The whole lines of ``data`` before the byte ``exc`` failed on, then a CsvParseError naming that byte's line."""
    lines = io.StringIO(data[: exc.start].decode("utf-8").removeprefix("\ufeff"), newline="").readlines()
    if lines and not lines[-1].endswith(("\n", "\r")):
        lines.pop()  # the start of the byte's own line
    yield from lines
    bad = f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8 ({exc.reason})"
    raise CsvParseError(bad, line=len(lines) + 1)


def _read_rows(lines, date_column: str, value_column: str | None) -> tuple:
    """The kept dates, values and day ordinals, the value column and the dropped count; raises every load error."""
    reader = csv.reader(lines)
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

    return dates, values, ordinals, value_column, dropped


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
