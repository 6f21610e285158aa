import dataclasses
import datetime
import json

import numpy as np
import pytest

from varbreak import (
    DecisionRule,
    NonpositiveVarianceError,
    PipelineConfig,
    SeriesFile,
    SingularDesignError,
    emit_report,
    run_table,
    run_test_pipeline,
)
from varbreak.mc import McExperimentSpec, VariancePathSpec, run_experiment
from varbreak.pipeline import REPORT_SCHEMA_VERSION

from conftest import growing_variance_levels, month_starts


def series_from_values(values, step_months=1, seed_date=datetime.date(1990, 1, 1)):
    dates = month_starts(seed_date, len(values), step_months)
    return SeriesFile(dates=tuple(dates), values=np.asarray(values, dtype=float), source_id="SYN")


def white_noise_series(n, seed):
    rng = np.random.default_rng(seed)
    return series_from_values(rng.standard_normal(n))


class TestRunTestPipeline:
    def test_reports_expose_every_choice(self):
        series = series_from_values(growing_variance_levels(200, seed=42))
        config = PipelineConfig(rule=DecisionRule.fixed_boundary())
        report_std, report_mod = run_test_pipeline(series, config)
        assert report_std.kind == "Q_std" and report_mod.kind == "Q_mod"
        for report in (report_std, report_mod):
            assert report.critical_value == 1.33
            assert report.rule_source == "boundary"
            assert report.diff_order == 1
            assert report.ar_order >= 0
            assert report.n_effective == report.n_input - 1 - report.ar_order
            assert report.window_length == report.n_effective
        assert report_mod.poly_order is not None
        assert report_mod.poly_coefficients is not None
        assert report_mod.poly_aic_scores is not None
        assert report_std.poly_order is None

    def test_rejection_decisions_follow_the_rule(self):
        series = white_noise_series(120, seed=3)
        report_std, report_mod = run_test_pipeline(series, PipelineConfig(diff_order=0))
        for report in (report_std, report_mod):
            assert report.reject == (report.statistic > report.critical_value)
            assert 0.0 <= report.p_value <= 1.0

    def test_white_noise_rarely_rejects(self):
        # size check: both statistics stay under the asymptotic boundary
        # in at least 90 percent of seeded runs
        config = PipelineConfig(diff_order=0)
        both_below = 0
        for seed in range(100):
            report_std, report_mod = run_test_pipeline(white_noise_series(500, seed), config)
            both_below += (not report_std.reject) and (not report_mod.reject)
        assert both_below >= 90

    def test_fixed_ar_order_is_respected(self):
        series = white_noise_series(80, seed=5)
        report_std, _ = run_test_pipeline(series, PipelineConfig(diff_order=0, ar_order=2))
        assert report_std.ar_order == 2
        assert len(report_std.ar_coefficients) == 2

    def test_short_series_is_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            run_test_pipeline(series_from_values(np.arange(9.0)), PipelineConfig())

    @pytest.mark.parametrize("order", [-1, -2])
    def test_negative_difference_order_is_rejected(self, order):
        # a negative order used to run on the undifferenced series and report it as the order
        with pytest.raises(ValueError, match=f"^difference order must be at least 0, got {order}$"):
            run_test_pipeline(white_noise_series(100, seed=7), PipelineConfig(diff_order=order))

    def test_positivity_failure_is_an_error_unless_clamped(self):
        # an extreme variance ramp: low-order fits go negative at the start
        rng = np.random.default_rng(11)
        n = 120
        scale = np.exp(np.linspace(0.0, 6.0, n))
        series = series_from_values(scale * rng.standard_normal(n))
        config = PipelineConfig(diff_order=0, ar_order=0, p_max=1)
        with pytest.raises(NonpositiveVarianceError, match="statistic-mod"):
            run_test_pipeline(series, config)
        clamped = PipelineConfig(diff_order=0, ar_order=0, p_max=1, clamp=True)
        _, report_mod = run_test_pipeline(series, clamped)
        assert any("floored" in warning for warning in report_mod.warnings)

    def test_window_too_short_for_order_one_is_a_labelled_error(self):
        series = series_from_values(growing_variance_levels(661, seed=42))
        config = PipelineConfig(gamma=0.15)  # 658 residuals, floor(658**0.15) = 2
        with pytest.raises(SingularDesignError, match="^variance-fit: order 1 design has 2 rows for 2 columns$"):
            run_test_pipeline(series, config)

    def test_stage_label_keeps_the_type_and_chains_the_cause(self):
        # a fixed AR order whose design is square: 21 differenced values, AR(10) has 11 rows for 11 columns
        series = series_from_values(growing_variance_levels(22, seed=42))
        with pytest.raises(SingularDesignError, match="^ar-fit: AR\\(10\\) design has 11 rows for 11 columns$") as info:
            run_test_pipeline(series, PipelineConfig(ar_order=10))
        assert type(info.value.__cause__) is SingularDesignError
        assert str(info.value.__cause__) == "AR(10) design has 11 rows for 11 columns"

    @pytest.mark.parametrize("k", [-60, -46, -43, 43, 46, 60])
    def test_power_of_two_scaling_of_the_levels_changes_no_outcome(self, k):
        # levels in currency units (x 2**43, increments near 1e13) or tiny
        # units give the orders, statistics and decisions of the unscaled run
        levels = growing_variance_levels(300, seed=42)
        config = PipelineConfig(clamp=True)
        base = run_test_pipeline(series_from_values(levels), config)
        scaled = run_test_pipeline(series_from_values(np.ldexp(levels, k)), config)
        fields = ("ar_order", "ar_coefficients", "poly_order", "statistic", "p_value", "reject")
        for got, want in zip(scaled, base):
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

    def test_subsample_window_configuration(self):
        series = white_noise_series(300, seed=6)
        config = PipelineConfig(diff_order=0, gamma=0.8, offset_fraction=0.1, clamp=True)
        report_std, _ = run_test_pipeline(series, config)
        assert report_std.window_offset > 0
        assert report_std.window_length < report_std.n_effective


class TestEmitTestReports:
    @pytest.fixture()
    def reports(self):
        series = white_noise_series(100, seed=7)
        return list(run_test_pipeline(series, PipelineConfig(diff_order=0)))

    def test_json_round_trip_is_lossless(self, reports):
        text = emit_report(reports, "json")
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        for parsed, original in zip(payload["reports"], reports):
            assert parsed["statistic"] == original.statistic
            assert parsed["p_value"] == original.p_value
            assert parsed["critical_value"] == original.critical_value
            for score_pair, original_pair in zip(
                parsed["poly_aic_scores"] or [], original.poly_aic_scores or []
            ):
                assert tuple(score_pair) == original_pair

    def test_json_rows_are_the_report_fields(self, reports):
        # Q_std leaves every poly_* field None; Q_mod has AIC scores; the copies carry warnings
        assert reports[0].poly_order is None and reports[1].poly_aic_scores
        warned = [dataclasses.replace(r, warnings=("first", "second")) for r in reports]
        for items in (reports, warned):
            payload = {
                "schema_version": REPORT_SCHEMA_VERSION,
                "kind": "test_reports",
                "reports": [dataclasses.asdict(r) for r in items],
            }
            assert emit_report(items, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_is_deterministic(self, reports):
        assert emit_report(reports, "json") == emit_report(reports, "json")

    def test_human_and_csv_shapes(self, reports):
        human = emit_report(reports, "human")
        assert "Q_std" in human and "Q_mod" in human and "critical value" in human
        csv_text = emit_report(reports, "csv")
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("kind,statistic")
        assert len(lines) == 3

    def test_unknown_format(self, reports):
        with pytest.raises(ValueError):
            emit_report(reports, "xml")


class TestEmitExperiments:
    def test_empty_list_gives_header_only(self):
        text = emit_report([], "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("dgp,n,alpha")

    def test_one_result_gives_one_row_with_rate_and_se(self):
        spec = McExperimentSpec(
            dgp="dgp1",
            n=50,
            replications=25,
            path=VariancePathSpec(n=50),
            seed=3,
            decision=DecisionRule.fixed_boundary(),
        )
        result = run_experiment(spec)
        lines = emit_report([result], "csv").strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert float(row[header.index("rate_std")]) == result.rejection_rate_std
        assert float(row[header.index("se_std")]) == result.se_std

    def test_json_shape(self):
        text = emit_report([], "json")
        assert json.loads(text)["kind"] == "experiments"


class TestEmitSimulationTable:
    @pytest.fixture(scope="class")
    @staticmethod
    def size_table():
        return run_table(1, seed=99, replications=25)

    def test_size_layout(self, size_table):
        lines = emit_report(size_table, "csv").strip().splitlines()
        assert lines[0] == "statistic,n=50,n=100,n=200"
        assert lines[1].startswith("Q_std,")
        assert lines[2].startswith("Q_mod,")
        assert len(lines) == 3

    def test_power_layout(self):
        table = run_table(3, seed=99, replications=10)
        lines = emit_report(table, "csv").strip().splitlines()
        assert lines[0] == "alpha,n=50,n=100,n=200"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]

    def test_json_cells(self, size_table):
        payload = json.loads(emit_report(size_table, "json"))
        assert payload["kind"] == "simulation_table"
        assert len(payload["cells"]) == 3
        assert payload["decision"]["critical_value"] == 1.33

    def test_human_rendering(self, size_table):
        text = emit_report(size_table, "human")
        assert "table 1" in text and "Q_mod" in text
