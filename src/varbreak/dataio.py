"""CSV ingestion for FRED-style series exports, and differencing.

Files are expected comma-separated with a header, a DATE column of
ISO-8601 dates (stored as YYYY-MM-DD) and one value column; missing
observations marked "." (or empty) are dropped and counted, never
interpolated.  :func:`load_csv` reads quote-free text whose rows all have
the header's width by ``str.split``, and any other text, or a file with an
error, row by row with ``csv.reader``, which words the first error; either
way one column-wise conversion makes the series.
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
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")  # every byte but a comma and a line feed


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


def _frequency(ordinals: np.ndarray) -> str:
    """Classify the median gap of day ordinals: ~30 days monthly, ~91 quarterly."""
    if len(ordinals) < 3:
        return "unknown"
    gaps = np.sort(np.diff(ordinals))
    gap = (gaps[(gaps.size - 1) // 2] + gaps[gaps.size // 2]) / 2  # exact: the middle gap, or the middle pair's mean
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
        For a missing or malformed header, a value column that is the date
        column, a malformed or unparseable row, or a byte that is not UTF-8;
        the message carries the 1-based number of the physical line the row
        ends on, or the byte is on.
    DateOrderError
        If dates are not strictly increasing.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text, stop = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # the whole lines before the byte are read first: an error of theirs wins
        text = data[: exc.start].decode("utf-8")
        text = text[: max(text.rfind("\n"), text.rfind("\r")) + 1]  # less the start of the byte's own line
        stop = f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8 ({exc.reason})"
    text = text.removeprefix("\ufeff")  # as utf-8-sig reads it, with file offsets in an error
    if not stop and (reading := _split(text)) and (series := _convert(*reading, date_column, value_column)):
        return series
    return _read_rows(text, date_column, value_column, stop)


def _split(text: str) -> tuple[list[str], list[str]] | None:
    """Header names and body cells of ``text`` by ``str.split``, or None where ``csv.reader`` would read it otherwise.

    The text must hold no quote, no NUL, no carriage return but in a CRLF, and no line past the field size limit; a
    header of w names then needs w - 1 commas on every body row, checked in one pass that keeps only the body's commas
    and line feeds: a blank row fails the check, or else its empty date fails the conversion.
    """
    plain, limit = text.replace("\r\n", "\n") if "\r" in text else text, csv.field_size_limit()
    if '"' in plain or "\r" in plain or "\0" in plain or (len(plain) > limit and max(map(len, plain.split("\n"))) > limit):
        return None
    head, _, body = plain.removesuffix("\n").partition("\n")
    header = [cell.strip() for cell in head.split(",")]
    separators = body.encode().translate(None, _NOT_SEPARATORS)
    rows = separators.count(b"\n") + 1  # an empty body is one empty row, matched only by a header of one column
    if separators == ((b"," * (len(header) - 1) + b"\n") * rows)[:-1]:
        return header, body.replace("\n", ",").split(",")
    return None


def _convert(header: list[str], cells: list[str], date_column: str, value_column: str | None) -> SeriesFile | None:
    """The series of a header and its body cells, converted a column at a time, or None where there is an error."""
    if value_column is None:
        value_column = next((name for name in header if name != date_column), None)
    if date_column not in header or value_column not in header or value_column == date_column:
        return None
    width = len(header)
    dates = list(map(str.strip, cells[header.index(date_column) :: width]))
    raw_values = list(map(str.strip, cells[header.index(value_column) :: width]))
    dropped = sum(map(raw_values.count, MISSING_MARKERS))
    try:
        ordinals = np.fromiter(map(datetime.date.toordinal, map(datetime.date.fromisoformat, dates)), np.int64)
        increasing = (ordinals[1:] > ordinals[:-1]).all()  # over the dropped rows too
        if dropped:
            kept = [value not in MISSING_MARKERS for value in raw_values]
            dates, raw_values = (list(itertools.compress(c, kept)) for c in (dates, raw_values))
            ordinals = ordinals[kept]
        values = np.fromiter(map(float, raw_values), np.float64, len(raw_values))  # float's accepted set, not numpy's
    except ValueError:
        return None
    if not (increasing and np.isfinite(values).all()):
        return None
    joined = "".join(dates)  # every date parsed, so none is past 10 characters: 10N means each is 10
    if len(joined) != 10 * len(dates) or not joined[4::10] == joined[7::10] == "-" * len(dates):
        dates = list(map(datetime.date.isoformat, map(datetime.date.fromordinal, ordinals.tolist())))  # as YYYY-MM-DD
    return SeriesFile._checked(
        dates=tuple(dates),
        values=values,
        frequency=_frequency(ordinals),
        source_id=value_column,
        dropped_missing=dropped,
    )


def _read_rows(text: str, date_column: str, value_column: str | None, stop: str | None) -> SeriesFile:
    """The series of ``text`` by ``csv.reader`` less its blank rows, or its first error in file order raised; ``stop``,
    why the text was cut short, is raised when the reader asks for the line after its last: a record still open there
    is not read."""

    def lines():
        yield from io.StringIO(text, newline="")
        if stop:
            raise CsvParseError(stop, line=reader.line_num + 1)

    reader = csv.reader(lines())
    try:
        header = [cell.strip() for cell in next(reader)]
        if date_column not in header:
            raise CsvParseError(f"no {date_column!r} column in header {header}", line=1)
        if value_column is None:
            value_column = next((name for name in header if name != date_column), None)
            if value_column is None:
                raise CsvParseError("no value column besides the date column", line=1)
        if value_column not in header:
            raise CsvParseError(f"no {value_column!r} column in header {header}", line=1)
        if value_column == date_column:
            raise CsvParseError(f"value column {value_column!r} is the date column", line=1)
        date_idx, value_idx, width = header.index(date_column), header.index(value_column), len(header)
        previous = 0  # ordinal of the last dated row; a real date's is at least 1
        cells = []
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) != width:
                raise CsvParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
            raw_date, raw_value = row[date_idx].strip(), row[value_idx].strip()
            try:
                ordinal = datetime.date.fromisoformat(raw_date).toordinal()
            except ValueError:
                raise CsvParseError(f"unparseable date {raw_date!r}", line=reader.line_num) from None
            if ordinal <= previous:
                raise DateOrderError(f"line {reader.line_num}: date {raw_date} does not increase past "
                                     f"{datetime.date.fromordinal(previous).isoformat()}")
            previous = ordinal
            try:
                finite = raw_value in MISSING_MARKERS or math.isfinite(float(raw_value))
            except ValueError:
                raise CsvParseError(f"unparseable value {raw_value!r}", line=reader.line_num) from None
            if not finite:
                raise CsvParseError(f"non-finite value {raw_value!r}", line=reader.line_num)
            cells += row
    except StopIteration:  # from reading the header
        raise CsvParseError("file is empty", line=1) from None
    except csv.Error as exc:
        raise CsvParseError(str(exc), line=reader.line_num) from None
    return _convert(header, cells, date_column, value_column)


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
