import datetime

import numpy as np
import pytest
from hypothesis import given
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

    def test_value_column_selects_by_name(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text("DATE,A,B\n2001-01-01,1.0,10.0\n2001-02-01,2.0,20.0\n")
        series = load_csv(path, value_column="B")
        np.testing.assert_array_equal(series.values, [10.0, 20.0])
        assert series.source_id == "B"


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

    def test_values_read_only(self):
        series = SeriesFile(dates=("2000-01-01", "2000-02-01"), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0
