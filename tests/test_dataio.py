import csv
import datetime
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varbreak import (
    CsvParseError,
    DateOrderError,
    SeriesFile,
    dataio,
    difference,
    load_csv,
)

from conftest import growing_variance_levels, month_starts, write_fred_csv
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

    @pytest.mark.parametrize(
        "tail,error,line",
        [
            ("2000-02-01,oops\n", CsvParseError, 4),
            ("2000-02-01,2\n2000-01-15,3\n", DateOrderError, 5),
            ("2000-02-01,2,9\n", CsvParseError, 4),
        ],
        ids=["value", "date-order", "width"],
    )
    def test_line_numbers_count_physical_lines_after_a_multiline_field(self, tmp_path, tail, error, line):
        path = tmp_path / "multiline.csv"
        path.write_text('DATE,X\n2000-01-01,"1\n"\n' + tail)  # the first record spans lines 2 and 3
        with pytest.raises(error, match=f"^line {line}: "):
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

    def test_header_with_only_the_date_column(self, tmp_path):
        path = tmp_path / "dates.csv"
        path.write_text("DATE\n2001-01-01\n")
        with pytest.raises(CsvParseError, match="^line 1: no value column besides the date column$"):
            load_csv(path)

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

    def test_ragged_rows_whose_cells_line_up_again(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("DATE,X\n2001-01-01\n1.0,2001-02-01,2.0\n")  # 1 + 3 cells read as two rows of 2
        with pytest.raises(CsvParseError, match="^line 2: expected 2 fields, got 1$"):
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

    def test_unquoted_field_past_the_limit_in_an_unread_column_is_a_parse_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"DATE,X,Y\n2001-01-01,1.0,{'1' * (csv.field_size_limit() + 1)}\n")
        with pytest.raises(CsvParseError, match="^line 2: field larger than field limit"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_reports_line_number(self, tmp_path, value):
        path = tmp_path / "inf.csv"
        path.write_text(f"DATE,X\n2001-01-01,1.0\n2001-02-01,{value}\n")
        with pytest.raises(CsvParseError, match=f"^line 3: non-finite value '{value}'$"):
            load_csv(path)

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1_000", 1000.0),
            (" 2.5 ", 2.5),
            ("\u0661\u0662\u0663", 123.0),  # Arabic-Indic digits
            ("Infinity", "non-finite value 'Infinity'"),
            ("1e400", "non-finite value '1e400'"),
            ("0x10", "unparseable value '0x10'"),
        ],
        ids=["underscore", "padded", "arabic-indic", "infinity", "overflow", "hex"],
    )
    def test_a_value_cell_reads_as_python_float_reads_it(self, tmp_path, value, expected):
        # numpy's string parsing accepts another set than float does; the loader keeps float's, the literal's
        path = tmp_path / "values.csv"
        path.write_text(f"DATE,X\n2001-01-01,1.0\n2001-02-01,{value}\n2001-03-01,3.0\n", encoding="utf-8")
        outcome = _outcome(load_csv, path)
        assert outcome == _outcome(load_csv_literal, path)
        if isinstance(expected, float):
            assert outcome[1] == np.array([1.0, expected, 3.0]).tobytes()
        else:
            assert outcome == (CsvParseError, f"line 3: {expected}")

    @pytest.mark.parametrize(
        "before,line",
        [
            ("DATE,X\n" + "".join(f"{d},1.5\n" for d in month_starts(datetime.date(1900, 1, 1), 1500, 1)), 1502),
            ("DA", 1),
            ("\ufeffDATE,X\r\n2000-01-01,1\r\n2000-02-01,", 3),
            ("DATE,X\r2000-01-01,1\r2000-02-01,", 3),  # lone CR line ends, which the property below leaves out
        ],
        ids=["past-8KiB", "header", "bom-crlf", "cr"],
    )
    def test_byte_that_is_not_utf8_names_its_line_and_file_offset(self, tmp_path, before, line):
        # the offset counts from the start of the file, BOM included, not from a decoded chunk
        path = tmp_path / "latin.csv"
        path.write_bytes(before.encode() + b"\xff\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert str(info.value) == f"line {line}: byte 0xff at offset {len(before.encode())} is not UTF-8 (invalid start byte)"

    def test_an_earlier_row_error_wins_over_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"DATE,X\n2000-01-01,1\n2000-02-01,x\n2000-03-01,\xff\n")
        with pytest.raises(CsvParseError, match="^line 3: unparseable value 'x'$"):
            load_csv(path)

    def test_value_column_selects_by_name(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text("DATE,A,B\n2001-01-01,1.0,10.0\n2001-02-01,2.0,20.0\n")
        series = load_csv(path, value_column="B")
        np.testing.assert_array_equal(series.values, [10.0, 20.0])
        assert series.source_id == "B"

    # dates of the second form also parse as floats
    @pytest.mark.parametrize("dates", [["2001-01-01", "2001-02-01"], ["20010101", "20010201"]])
    def test_value_column_that_is_the_date_column_is_a_header_error(self, tmp_path, dates):
        path = write_fred_csv(tmp_path / "x.csv", "X", dates, [1.0, 2.0])
        with pytest.raises(CsvParseError, match="^line 1: value column 'DATE' is the date column$"):
            load_csv(path, value_column="DATE")


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


def _quoted(draw, cell: str) -> str:
    at = draw(st.integers(0, len(cell)))
    return '"' + cell[:at] + draw(st.sampled_from(["", "", ",", '""', "\n", "\r\n"])) + cell[at:] + '"'


@st.composite
def fred_csv_texts(draw) -> str:
    """CSV text around a FRED export: blank, ragged and quoted rows, quoted
    cells holding a comma, a doubled quote or a line break, missing and
    non-finite values, non-canonical, equal and decreasing dates, a BOM, a
    lone carriage return or a NUL inside a line."""
    columns = draw(st.permutations(["DATE", "X", "Y"][: draw(st.integers(2, 3))]))
    quoted = draw(st.booleans())  # the other half of the texts hold no quote
    lines = [",".join(f'"{name}"' if quoted and draw(st.booleans()) else name for name in columns)]
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
        lines.append(",".join(_quoted(draw, cell) if quoted and draw(st.booleans()) else cell for cell in row))
    stray = draw(st.sampled_from(["", "", "", "\r", "\0"]))
    if stray:
        line = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[line])))
        lines[line] = lines[line][:at] + stray + lines[line][at:]
    bom = "\ufeff" if draw(st.booleans()) else ""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(loader, path, **options):
    try:
        series = loader(path, **options)
    except Exception as exc:
        return type(exc), str(exc)
    return series.dates, series.values.tobytes(), series.frequency, series.source_id, series.dropped_missing


class TestLoadCsvMatchesTheLiteralLoader:
    @settings(deadline=None)
    # every value column but the date column, whose error the literal loader words otherwise; Z is in no header
    @given(text=fred_csv_texts(), value_column=st.sampled_from([None, "X", "Y", "Z"]))
    @example(text="DATE,X\n2000-01-01,1\n2000-03-01,.\n2000-02-01,2\n", value_column=None)  # decrease after a dropped row
    @example(text="DATE,X\n2000-01-01,1\n2000-02-01,.\n2000-02-01,2\n", value_column=None)  # equal after a dropped row
    @example(text="\ufeffDATE,X\n\n , \n,,\n20000101,1\n2000-W01-1,2\n2000-02-01,3\n", value_column=None)
    @example(text="X,DATE\n1,2000-01-01\n2,2000-02-01\n3,2000-03-01\n", value_column=None)
    @example(text="DATE,X\n2000-01-01,1_000\n2000-02-01,\u0661\u0662\u0663\n2000-03-01,2\n", value_column=None)  # float reads both
    @example(text="DATE,X\n2000-01-01,1\n2000-02-01,0x10\n", value_column=None)  # float reads no hex: one error
    @example(text='"DATE","X"\r\n2000-01-01,1\r\n2000-02-01,2\r\n', value_column=None)  # quotes in the header only
    @example(text='"DATE","X,Y"\n2000-01-01,1\n2000-02-01,2\n', value_column=None)  # a comma inside a quoted name
    @example(text='DATE,"X\n2000-01-01,1\n2000-02-01,2\n', value_column=None)  # a header quote that stays open to the end
    @example(text="DATE,X,Y\n2000-01-01,1,.\n2000-02-01,oops,2\n", value_column="Y")  # the other column is not read
    def test_same_series_or_same_error(self, tmp_path_factory, text, value_column):
        path = tmp_path_factory.mktemp("differential") / "series.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(dataio, "_split", wraps=dataio._split) as split, \
                mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as row_loop:
            outcome = _outcome(load_csv, path, value_column=value_column)
        assert outcome == _outcome(load_csv_literal, path, value_column=value_column)
        reading = dataio._split(*split.call_args.args)
        converted = reading is not None and dataio._convert(*reading, "DATE", value_column) is not None
        assert row_loop.call_count == (not converted)  # exactly when the str.split reading does not convert


class TestByteThatIsNotUtf8:
    @settings(deadline=None)
    @given(
        # quote-free and with no lone CR, so that each line feed ends a physical line and a record
        text=fred_csv_texts().filter(lambda text: "\n" in text and '"' not in text and "\r" not in text.replace("\r\n", "")),
        data=st.data(),
    )
    def test_the_lines_before_it_fail_first_or_it_names_its_line_and_offset(self, tmp_path_factory, text, data):
        at = data.draw(st.sampled_from([at + 1 for at, char in enumerate(text) if char == "\n"]))  # a body line's start
        before = text[:at].encode()
        folder = tmp_path_factory.mktemp("latin")
        (folder / "before.csv").write_bytes(before)
        (folder / "latin.csv").write_bytes(before + b"\xff" + text[at:].encode())
        try:
            load_csv(folder / "before.csv")
        except (CsvParseError, DateOrderError) as exc:
            expected = type(exc), str(exc)
        else:  # the offset counts the BOM's three bytes too
            line = text.count("\n", 0, at) + 1
            expected = CsvParseError, f"line {line}: byte 0xff at offset {len(before)} is not UTF-8 (invalid start byte)"
        assert _outcome(load_csv, folder / "latin.csv") == expected


_ROWS = [("2000-01-01", "1.5"), ("2000-02-01", "2.5"), ("2000-03-01", "-0.25"), ("2000-04-01", "4"),
         ("2000-05-01", "1e3")]


def _plain(rows) -> str:
    return "DATE,X\n" + "".join(f"{date},{value}\n" for date, value in rows)


class TestOneConversion:
    @pytest.mark.parametrize(
        "text,gap,by_rows",
        [
            (_plain(_ROWS), None, False),
            (_plain(_ROWS).replace("\n", "\r\n"), None, False),
            ("\ufeff" + _plain(_ROWS), None, False),
            (_plain(_ROWS[:2] + [("2000-03-01", ".")] + _ROWS[3:]), 2, False),
            pytest.param(
                _plain([("20000101", "1.5")] + _ROWS[1:]),
                None,
                False,
                marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="date.fromisoformat reads only YYYY-MM-DD"),
            ),
            (_plain(_ROWS).replace("DATE,X", 'DATE,"X"'), None, True),
            ("DATE,X\n" + "".join(f'{date},"{value}\n"\n' for date, value in _ROWS), None, True),
            (_plain(_ROWS[:2]) + " , \n\n" + _plain(_ROWS[2:]).removeprefix("DATE,X\n") + "\n", None, True),
        ],
        ids=["plain", "crlf", "bom", "gappy", "basic-date", "quoted-header", "quoted-multiline-values", "blank-rows"],
    )
    def test_each_copy_converts_to_the_plain_series(self, tmp_path, text, gap, by_rows):
        path, plain = tmp_path / "copy.csv", tmp_path / "plain.csv"
        path.write_bytes(text.encode())
        plain.write_text(_plain([row for k, row in enumerate(_ROWS) if k != gap]))
        expected = _outcome(load_csv, plain)
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as row_loop:
            copy = _outcome(load_csv, path)
        assert row_loop.call_count == by_rows
        assert copy[:4] == expected[:4]  # dates, values, frequency and source
        assert copy[4] == (0 if gap is None else 1)  # dropped_missing

    @pytest.mark.parametrize(
        "count,start,step", [(661, datetime.date(1959, 1, 1), 1), (270, datetime.date(1946, 10, 1), 3)],
        ids=["monthly", "quarterly"],
    )
    def test_the_bench_surrogates_skip_the_row_loop(self, tmp_path, count, start, step):
        path = write_fred_csv(tmp_path / "surrogate.csv", "S", month_starts(start, count, step),
                              growing_variance_levels(count, 7))
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as row_loop:
            outcome = _outcome(load_csv, path)
        row_loop.assert_not_called()
        assert outcome == _outcome(load_csv_literal, path)


class TestInferFrequency:
    @staticmethod
    def frequency(tmp_path, dates):
        path = write_fred_csv(tmp_path / "dates.csv", "X", dates, np.arange(len(dates), dtype=float))
        return load_csv(path).frequency

    def test_monthly(self, tmp_path):
        assert self.frequency(tmp_path, month_starts(datetime.date(2000, 1, 1), 24, 1)) == "monthly"

    def test_quarterly(self, tmp_path):
        assert self.frequency(tmp_path, month_starts(datetime.date(2000, 1, 1), 24, 3)) == "quarterly"

    def test_unknown(self, tmp_path):
        assert self.frequency(tmp_path, ["2000-01-01", "2001-01-01", "2002-01-01"]) == "unknown"
        assert self.frequency(tmp_path, ["2000-01-01", "2000-02-01"]) == "unknown"

    @pytest.mark.parametrize(
        "low,high,frequency",
        [
            (27, 28, "unknown"),
            (27, 29, "monthly"),
            (30, 32, "monthly"),
            (31, 32, "unknown"),
            (83, 84, "unknown"),
            (83, 85, "quarterly"),
            (95, 97, "quarterly"),
            (96, 97, "unknown"),
        ],
        ids=["27.5", "28", "31", "31.5", "83.5", "84", "96", "96.5"],
    )
    def test_an_even_gap_count_classifies_the_mean_of_its_middle_pair(self, tmp_path, low, high, frequency):
        # gaps high, low, high, low: no gap is the median, (low + high) / 2, which falls on or past a bound
        ordinals = np.cumsum([datetime.date(2000, 1, 1).toordinal(), high, low, high, low])
        dates = [datetime.date.fromordinal(int(ordinal)).isoformat() for ordinal in ordinals]
        assert self.frequency(tmp_path, dates) == frequency

    def test_a_dropped_row_counts_for_date_order_but_not_for_the_gap(self, tmp_path):
        # with the dropped 2000-02-15 the gaps would be 31, 14, 15, 31, whose median 23 is no frequency
        path = tmp_path / "gappy.csv"
        path.write_text("DATE,X\n2000-01-01,1\n2000-02-01,2\n2000-02-15,.\n2000-03-01,3\n2000-04-01,4\n")
        series = load_csv(path)
        assert series.dates == ("2000-01-01", "2000-02-01", "2000-03-01", "2000-04-01")
        assert (series.frequency, series.dropped_missing) == ("monthly", 1)
        path.write_text(path.read_text().replace("2000-02-15", "2000-01-15"))
        with pytest.raises(DateOrderError, match="^line 4: date 2000-01-15 does not increase past 2000-02-01$"):
            load_csv(path)


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
        with pytest.raises(ValueError, match="^differences of order 1 leave the float range$"):
            difference(self.make([1e308, -1e308, 0.0]), 1)
        with pytest.raises(ValueError, match="^differences of order 2 leave the float range$"):
            difference(self.make([1e308, -1e308, 1e308, 0.0]), 2)

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

    def test_rejects_an_unknown_frequency(self):
        with pytest.raises(ValueError, match="^unknown frequency 'weekly'$"):
            SeriesFile(dates=("2000-01-01", "2000-02-01"), values=np.array([1.0, 2.0]), frequency="weekly")

    def test_values_read_only(self):
        series = SeriesFile(dates=("2000-01-01", "2000-02-01"), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0
