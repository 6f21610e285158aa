import csv
import datetime
import json

import numpy as np
import pytest

from varbreak.armodel import fit_ar_ols
from varbreak.cli import DEFAULT_PMAX, _build_parser, main
from varbreak.errors import SingularDesignError
from varbreak.nulldist import DecisionRule
from varbreak.pipeline import PipelineConfig

from conftest import growing_variance_levels, month_starts, write_fred_csv


@pytest.fixture()
def macro_csv(tmp_path):
    dates = month_starts(datetime.date(1980, 1, 1), 240, 1)
    values = growing_variance_levels(240, seed=101)
    return write_fred_csv(tmp_path / "MACRO.csv", "MACRO", dates, values)


def test_pmax_default_is_the_pipeline_default():
    # cli writes the default out so that building the parser imports no pipeline
    assert _build_parser().parse_args(["test", "series.csv"]).pmax == DEFAULT_PMAX == PipelineConfig().p_max


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

    def test_level_below_the_rounding_of_one(self, capsys):
        # 1 - 1e-20 rounds to 1.0, which once failed with "p must be in (0, 1), got 1.0"
        assert main(["critval", "--level", "1e-20"]) == 0
        assert capsys.readouterr().out == f"{DecisionRule.asymptotic(1e-20).critical_value!r}\n"


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

    @pytest.mark.parametrize("step_months", [1, 3])
    @pytest.mark.parametrize("count", [11])
    def test_short_series_with_aic_ar_order_give_a_report(self, capsys, tmp_path, count, step_months):
        # a residual window shorter than p_max + 2 caps the order search instead of failing
        dates = month_starts(datetime.date(1990, 1, 1), count, step_months)
        path = write_fred_csv(tmp_path / "SHORT.csv", "SHORT", dates, growing_variance_levels(count, 7))
        assert main(["test", str(path), "--clamp", "--ar", "auto", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["reports"][1]
        cap = report["window_length"] - 2
        assert cap < 5 and len(report["poly_aic_scores"]) == cap and report["poly_order"] <= cap
        assert report["warnings"][0] == f"polynomial order search capped at {cap} by window length {cap + 2}"

    @pytest.mark.parametrize("step_months", [1, 3])
    @pytest.mark.parametrize("count", range(10, 27))
    def test_aic_ar_order_leaves_a_residual_degree_of_freedom(self, capsys, tmp_path, count, step_months):
        # an AR order whose common-sample design is square fits the series exactly, so the
        # statistics would run on rounding noise; the search stops one order short of it
        dates = month_starts(datetime.date(1990, 1, 1), count, step_months)
        levels = growing_variance_levels(count, 7)
        path = write_fred_csv(tmp_path / "SHORT.csv", "SHORT", dates, levels)
        assert main(["test", str(path), "--clamp", "--ar", "auto", "--format", "json"]) == 0
        n_diff = count - 1
        assert json.loads(capsys.readouterr().out)["reports"][0]["ar_order"] <= (n_diff - 2) // 2
        m = (n_diff - 1) // 2
        with pytest.raises(SingularDesignError, match=f"has {m + 1} rows for {m + 1} columns"):
            fit_ar_ols(np.diff(levels)[: 2 * m + 1], m, intercept=True)

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_fixed_ar_order_too_long_for_the_series_is_a_labelled_error(self, capsys, tmp_path, m):
        # 10 observations, 9 differences: AR(m) has 9 - m rows, none at m = 9, for m + 1 columns
        dates = month_starts(datetime.date(1990, 1, 1), 10, 1)
        path = write_fred_csv(tmp_path / "SHORT.csv", "SHORT", dates, growing_variance_levels(10, 7))
        assert main(["test", str(path), "--ar", str(m)]) == 1
        err = capsys.readouterr().err
        assert err == f"varbreak: error: ar-fit: AR({m}) design has {9 - m} rows for {m + 1} columns\n"

    def test_pmax_zero_is_an_argument_error_before_any_fit(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--pmax", "0"]) == 1
        assert capsys.readouterr().err == "varbreak: error: polynomial order must be at least 1, got 0\n"

    def test_level_with_the_paper_rule_is_a_usage_error(self, capsys, macro_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["test", str(macro_csv), "--rule", "paper", "--level", "0.01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: varbreak")
        assert "test: --level applies to --rule asymptotic" in captured.err

    def test_negative_difference_order_is_an_error(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--diff", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "varbreak: error: difference order must be at least 0, got -1\n"

    def test_difference_order_zero_tests_the_levels(self, capsys, macro_csv):
        assert main(["test", str(macro_csv), "--diff", "0", "--clamp", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["diff_order"] == 0 and report["n_input"] == 240

    def test_malformed_csv_record_is_a_line_numbered_error(self, capsys, tmp_path):
        # csv.reader raises csv.Error on a field past its size limit; that is an error line, not a traceback
        path = tmp_path / "HUGE.csv"
        path.write_text('DATE,X\n2001-01-01,"' + "1" * (csv.field_size_limit() + 1) + '"\n')
        assert main(["test", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("varbreak: error: line 2: field larger than field limit") and err.count("\n") == 1

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

    def test_level_sets_the_asymptotic_rule(self, capsys):
        assert main(["simulate", "--table", "1", "--seed", "2", "--reps", "10",
                     "--format", "json", "--rule", "asymptotic", "--level", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"]["critical_value"] == pytest.approx(1.6276, abs=5e-4)

    def test_level_with_the_default_paper_rule_is_a_usage_error(self, capsys):
        # the grid default is the fixed boundary, which has no level to set
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--table", "1", "--reps", "10", "--level", "0.01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: varbreak")
        assert "simulate: --level applies to --rule asymptotic" in captured.err
