import datetime
import json

import pytest

from varbreak.cli import main

from conftest import growing_variance_levels, month_starts, write_fred_csv


@pytest.fixture()
def macro_csv(tmp_path):
    dates = month_starts(datetime.date(1980, 1, 1), 240, 1)
    values = growing_variance_levels(240, seed=101)
    return write_fred_csv(tmp_path / "MACRO.csv", "MACRO", dates, values)


class TestCritval:
    def test_default_level(self, capsys):
        assert main(["critval"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.3581, abs=5e-4)

    def test_custom_level(self, capsys):
        assert main(["critval", "--level", "0.10"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.2238, abs=5e-4)

    def test_bad_level(self, capsys):
        assert main(["critval", "--level", "2.0"]) == 1
        assert "error" in capsys.readouterr().err


class TestTestCommand:
    def test_human_output_and_exit_zero(self, capsys, macro_csv):
        assert main(["test", str(macro_csv)]) == 0
        out = capsys.readouterr().out
        assert "Q_std" in out and "Q_mod" in out

    def test_json_output(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--format", "json", "--rule", "paper"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = [r["kind"] for r in payload["reports"]]
        assert kinds == ["Q_std", "Q_mod"]
        assert all(r["critical_value"] == 1.33 for r in payload["reports"])

    def test_exit_zero_even_when_rejecting(self, capsys, macro_csv):
        # growing variance makes Q_std reject; rejection is data, not an error
        assert main(["test", str(macro_csv), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["reject"] is True

    def test_fixed_ar_and_pmax(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--ar", "2", "--pmax", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["ar_order"] == 2
        assert payload["reports"][1]["poly_order"] <= 3

    def test_missing_file_is_operational_error(self, capsys, tmp_path):
        assert main(["test", str(tmp_path / "absent.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_ar_argument(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--ar", "several"]) == 1

    def test_out_file(self, tmp_path, macro_csv):
        target = tmp_path / "report.json"
        assert main(["test", str(macro_csv), "--format", "json", "--out", str(target)]) == 0
        assert json.loads(target.read_text())["schema_version"] == 1

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "1"]])
    def test_offset_of_a_full_length_window_is_an_error(self, capsys, macro_csv, gamma):
        # a full-length window cannot start later; the offset is never dropped
        assert main(["test", str(macro_csv), "--offset", "0.3", *gamma]) == 1
        assert "does not fit in a series" in capsys.readouterr().err

    @pytest.mark.parametrize("ar", [[], ["--ar", "8"]])
    @pytest.mark.parametrize("step_months", [1, 3])
    @pytest.mark.parametrize("count", range(10, 27))
    def test_short_series_end_in_a_report_or_one_error_line(
        self, capsys, tmp_path, count, step_months, ar
    ):
        # too few observations for the AR designs must be a named error, not a traceback
        dates = month_starts(datetime.date(1990, 1, 1), count, step_months)
        path = write_fred_csv(tmp_path / "SHORT.csv", "SHORT", dates, growing_variance_levels(count, 7))
        code = main(["test", str(path), "--clamp", *ar])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and err.startswith("varbreak: error:") and err.count("\n") == 1

    def test_usage_error_exits_two(self, macro_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["test", str(macro_csv), "--rule", "folk"])
        assert excinfo.value.code == 2


class TestSimulateCommand:
    def test_csv_shape_and_determinism(self, capsys):
        assert main(["simulate", "--table", "1", "--seed", "3", "--reps", "30"]) == 0
        first = capsys.readouterr().out
        assert first.splitlines()[0] == "statistic,n=50,n=100,n=200"
        assert main(["simulate", "--table", "1", "--seed", "3", "--reps", "30"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_output(self, capsys):
        main(["simulate", "--table", "1", "--seed", "3", "--reps", "30"])
        first = capsys.readouterr().out
        main(["simulate", "--table", "1", "--seed", "4", "--reps", "30"])
        assert capsys.readouterr().out != first

    def test_json_format(self, capsys):
        assert main(["simulate", "--table", "3", "--seed", "2", "--reps", "10",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table_kind"] == "power"
        assert len(payload["cells"]) == 15

    def test_asymptotic_rule_flag(self, capsys):
        assert main(["simulate", "--table", "1", "--seed", "2", "--reps", "10",
                     "--format", "json", "--rule", "asymptotic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"]["critical_value"] == pytest.approx(1.3581, abs=5e-4)
