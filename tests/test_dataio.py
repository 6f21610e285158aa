import csv
import datetime
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varbreak import (
    CsvParseError,
    DateOrderError,
    SeriesFile,
    difference,
    infer_frequency,
    load_csv,
)

from conftest import month_starts, write_fred_csv
from oracles import load_csv_literal


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = write_fred_csv(
            tmp_path / "ok.csv",
            "TESTSERIES",
            ["2001-01-01", "2001-02-01", "2001-03-01"],
            [1.5, 2.5, 3.5],
        )
        series = load_csv(path)
        assert series.n == 3
        np.testing.assert_array_equal(series.values, [1.5, 2.5, 3.5])
        assert series.source_id == "TESTSERIES"
        assert series.dropped_missing == 0

    def test_missing_marker_is_dropped_and_counted(self, tmp_path):
        path = write_fred_csv(
            tmp_path / "gap.csv",
            "X",
            ["2001-01-01", "2001-02-01", "2001-03-01"],
            [1.0, ".", 3.0],
        )
        series = load_csv(path)
        assert series.n == 2
        assert series.dropped_missing == 1

    def test_quarterly_range_count(self, tmp_path):
        # 1946-10-01 through 2014-01-01 holds 270 quarterly observations
        dates = month_starts(datetime.date(1946, 10, 1), 270, 3)
        assert dates[0] == "1946-10-01" and dates[-1] == "2014-01-01"
        path = write_fred_csv(tmp_path / "fdi.csv", "Q", dates, np.arange(270.0))
        series = load_csv(path)
        assert series.n == 270
        assert series.frequency == "quarterly"
        assert difference(series, 1).n == 269

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("DATE,X\n2001-01-01,1.0\n2001-02-01,oops\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path)

    def test_bad_date_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("DATE,X\n2001-99-01,1.0\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path)

    def test_nonmonotone_dates(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("DATE,X\n2001-02-01,1.0\n2001-01-01,2.0\n")
        with pytest.raises(DateOrderError):
            load_csv(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("WHEN,X\n2001-01-01,1.0\n")
        with pytest.raises(CsvParseError, match="DATE"):
            load_csv(path)
        with pytest.raises(CsvParseError, match="'Y'"):
            load_csv(path, date_column="WHEN", value_column="Y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("DATE,X\n2001-01-01,1.0,9.9\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="date.fromisoformat reads only YYYY-MM-DD before 3.11")
    def test_other_iso_date_forms_are_stored_as_yyyy_mm_dd(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("DATE,X\n20000101,1.0\n2000-W01-1,2.0\n")
        assert load_csv(path).dates == ("2000-01-01", "2000-01-03")

    @pytest.mark.parametrize("line", [1, 2])
    def test_malformed_record_is_a_parse_error_with_its_line(self, tmp_path, line):
        # a field past the csv module's size limit makes csv.reader raise csv.Error
        huge = '"' + "1" * (csv.field_size_limit() + 1) + '"'
        rows = [f"DATE,{huge}", "2001-01-01,1.0"] if line == 1 else ["DATE,X", f"2001-01-01,{huge}"]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match=f"^line {line}: field larger than field limit"):
            load_csv(path)

    def test_value_column_selects_by_name(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text("DATE,A,B\n2001-01-01,1.0,10.0\n2001-02-01,2.0,20.0\n")
        series = load_csv(path, value_column="B")
        np.testing.assert_array_equal(series.values, [10.0, 20.0])
        assert series.source_id == "B"


_BLANK_ROWS = ("", "   ", ",", ",,", " , ")
_BAD_DATES = ("", "2001-99-01", "2001-02-30", "01/02/2001", "x")
_LOADABLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from([".", "", " . ", " 1.5 "])
)
_VALUES = st.one_of(_LOADABLE_VALUES, st.sampled_from(["inf", "-inf", "nan", "1e400", "oops"]))


def _date_cell(ordinal: int, form: str) -> str:
    day = datetime.date.fromordinal(ordinal)
    if form == "basic":
        return day.strftime("%Y%m%d")
    if form == "week":
        year, week, weekday = day.isocalendar()
        return f"{year}-W{week:02d}-{weekday}"
    return f" {day.isoformat()} " if form == "padded" else day.isoformat()


@st.composite
def fred_csv_texts(draw) -> str:
    """CSV text around a FRED export: blank, ragged and quoted rows, missing
    and non-finite values, non-canonical, equal and decreasing dates, a BOM."""
    columns = draw(st.permutations(["DATE", "X", "Y"][: draw(st.integers(2, 3))]))
    lines = [",".join(columns)]
    ordinal = datetime.date(2000, 1, 1).toordinal()
    faulty = draw(st.booleans())  # the other half of the texts hold no row that fails to load
    kinds = ["row"] * 8 + ["blank"] + (["ragged", "bad-date"] if faulty else [])
    steps = [draw(st.sampled_from([30, 31, 91, 92]))] * 6 + ([1, 0, -1, -40] if faulty else [1])
    values = _VALUES if faulty else _LOADABLE_VALUES
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(_BLANK_ROWS)))
            continue
        ordinal += draw(st.sampled_from(steps))
        date = _date_cell(ordinal, draw(st.sampled_from(["iso"] * 4 + ["basic", "week", "padded"])))
        cells = {"DATE": draw(st.sampled_from(_BAD_DATES)) if kind == "bad-date" else date}
        cells.update((name, draw(values)) for name in columns if name != "DATE")
        row = [cells[name] for name in columns]
        if kind == "ragged":
            row = row[: draw(st.integers(1, len(row) - 1))] if draw(st.booleans()) else row + ["9"]
        lines.append(",".join('"' + cell + '"' if draw(st.booleans()) else cell for cell in row))
    bom = "\ufeff" if draw(st.booleans()) else ""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(loader, path):
    try:
        series = loader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return series.dates, series.values.tobytes(), series.frequency, series.source_id, series.dropped_missing


class TestLoadCsvMatchesTheLiteralLoader:
    @settings(deadline=None)
    @given(text=fred_csv_texts())
    @example(text="DATE,X\n2000-01-01,1\n2000-03-01,.\n2000-02-01,2\n")  # decrease after a dropped row
    @example(text="DATE,X\n2000-01-01,1\n2000-02-01,.\n2000-02-01,2\n")  # equal after a dropped row
    @example(text="\ufeffDATE,X\n\n , \n,,\n20000101,1\n2000-W01-1,2\n2000-02-01,3\n")
    @example(text="X,DATE\n1,2000-01-01\n2,2000-02-01\n3,2000-03-01\n")
    def test_same_series_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("differential") / "series.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_csv, path) == _outcome(load_csv_literal, path)


class TestInferFrequency:
    def test_monthly(self):
        assert infer_frequency(tuple(month_starts(datetime.date(2000, 1, 1), 24, 1))) == "monthly"

    def test_quarterly(self):
        assert (
            infer_frequency(tuple(month_starts(datetime.date(2000, 1, 1), 24, 3))) == "quarterly"
        )

    def test_unknown(self):
        assert infer_frequency(("2000-01-01", "2001-01-01", "2002-01-01")) == "unknown"
        assert infer_frequency(("2000-01-01", "2000-02-01")) == "unknown"


class TestDifference:
    def make(self, values):
        dates = month_starts(datetime.date(2000, 1, 1), len(values), 1)
        return SeriesFile(dates=tuple(dates), values=np.asarray(values, dtype=float))

    def test_first_difference(self):
        diffed = difference(self.make([1.0, 3.0, 6.0, 10.0]), 1)
        np.testing.assert_array_equal(diffed.values, [2.0, 3.0, 4.0])
        assert diffed.dates[0] == "2000-02-01"

    def test_constant_series_differences_to_zero(self):
        diffed = difference(self.make([5.0] * 6), 1)
        np.testing.assert_array_equal(diffed.values, np.zeros(5))

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=30
        )
    )
    def test_second_difference_composes(self, values):
        series = self.make(values)
        once_twice = difference(difference(series, 1), 1)
        direct = difference(series, 2)
        np.testing.assert_array_equal(once_twice.values, direct.values)
        assert once_twice.dates == direct.dates

    def test_values_read_only(self):
        diffed = difference(self.make([1.0, 3.0, 6.0]), 1)
        with pytest.raises(ValueError):
            diffed.values[0] = 9.0

    def test_differences_past_the_float_range_are_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="NaN or infinite"):
            difference(self.make([1e308, -1e308, 0.0]), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            difference(self.make([1.0, 2.0, 3.0]), 0)
        with pytest.raises(ValueError):
            difference(self.make([1.0, 2.0]), 2)


class TestSeriesFile:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SeriesFile(dates=("2000-01-01",), values=np.array([1.0, 2.0]))

    def test_rejects_nonincreasing_dates(self):
        with pytest.raises(DateOrderError):
            SeriesFile(dates=("2000-02-01", "2000-01-01"), values=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("repeat_at", [0, 1, 2])
    def test_rejects_equal_adjacent_dates(self, repeat_at):
        # strictly increasing: a date equal to the one before it fails wherever it sits
        dates = ["2000-01-01", "2000-02-01", "2000-03-01", "2000-04-01"]
        dates[repeat_at + 1] = dates[repeat_at]
        with pytest.raises(DateOrderError, match="^dates are not strictly increasing$"):
            SeriesFile(dates=tuple(dates), values=np.arange(4.0))

    def test_load_csv_rejects_an_equal_adjacent_date_with_its_line(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("DATE,X\n2001-01-01,1.0\n2001-01-01,2.0\n")
        with pytest.raises(DateOrderError, match="^line 3: date 2001-01-01 does not increase past 2001-01-01$"):
            load_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_values(self, bad):
        with pytest.raises(ValueError, match="^series values contain NaN or infinite entries$"):
            SeriesFile(dates=("2000-01-01", "2000-02-01"), values=np.array([1.0, bad]))

    def test_values_read_only(self):
        series = SeriesFile(dates=("2000-01-01", "2000-02-01"), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0
