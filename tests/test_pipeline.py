import dataclasses
import datetime
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import varbreak.cusum
import varbreak.variance_poly
from varbreak import (
    DecisionRule,
    NonpositiveVarianceError,
    PipelineConfig,
    SeriesFile,
    SingularDesignError,
    SubsampleWindow,
    VarbreakError,
    ZeroDispersionError,
    check_positivity,
    difference,
    emit_report,
    fit_ar_ols,
    run_table,
    run_test_pipeline,
    select_poly_order_aic,
    statistic_corrected,
    statistic_subsample,
)
from varbreak.mc import McExperimentSpec, VariancePathSpec, run_experiment
from varbreak.pipeline import REPORT_SCHEMA_VERSION

from conftest import growing_variance_levels, month_starts, split_levels
from oracles import pipeline_literal


def series_from_values(values, step_months=1, seed_date=datetime.date(1990, 1, 1)):
    dates = month_starts(seed_date, len(values), step_months)
    return SeriesFile(dates=tuple(dates), values=np.asarray(values, dtype=float), source_id="SYN")


def outcomes(levels, config):
    """The orders, AR coefficients, statistics, p-values and decisions of the pipeline on ``levels``."""
    fields = ("ar_order", "ar_coefficients", "poly_order", "statistic", "p_value", "reject")
    return [[getattr(r, f) for f in fields] for r in run_test_pipeline(series_from_values(levels), config)]


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

    @staticmethod
    def profile_evaluations(monkeypatch):
        """A list that grows by one at each evaluation of ``variance_poly._profiles``, at every name it is called by."""
        calls = []
        profiles = varbreak.variance_poly._profiles

        def counted(*args):
            calls.append(args)
            return profiles(*args)

        for module in (varbreak.variance_poly, varbreak.cusum):
            monkeypatch.setattr(module, "_profiles", counted)
        return calls

    @staticmethod
    def public_chain(series, ar_order, config):
        """The README Quickstart chain on the AR(``ar_order``) residuals: the residuals, window and profile fit."""
        values = difference(series, config.diff_order).values if config.diff_order else series.values
        residuals = fit_ar_ols(values, ar_order, intercept=True).residuals
        window = SubsampleWindow.from_exponent(residuals.n, config.gamma, config.offset_fraction)
        return residuals, window, select_poly_order_aic(residuals, window, config.p_max).fit

    @pytest.mark.parametrize("clamp", [False, True])
    def test_positivity_is_checked_once_per_run(self, monkeypatch, clamp):
        # a profile that dips: a strict run raises statistic_corrected's error, a clamped run warns at
        # check_positivity's t and floors as statistic_corrected does, each from one profile evaluation
        rng = np.random.default_rng(11)
        series = series_from_values(np.exp(np.linspace(0.0, 6.0, 120)) * rng.standard_normal(120))
        config = PipelineConfig(diff_order=0, ar_order=0, p_max=1, clamp=clamp)
        calls = self.profile_evaluations(monkeypatch)
        if clamp:
            report_std, report_mod = run_test_pipeline(series, config)
        else:
            with pytest.raises(NonpositiveVarianceError) as info:
                run_test_pipeline(series, config)
        assert len(calls) == 1

        residuals, window, fit = self.public_chain(series, 0, config)
        t_min = check_positivity(fit)
        assert t_min is not None
        if clamp:
            (warning,) = report_mod.warnings
            assert warning.endswith(f" at t={t_min})")
            assert report_std.statistic == statistic_subsample(residuals, window)
            assert report_mod.statistic == statistic_corrected(residuals, fit, positivity="clamp")
        else:
            with pytest.raises(NonpositiveVarianceError) as chain:
                statistic_corrected(residuals, fit)
            assert str(info.value) == f"statistic-mod: {chain.value}"

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("gamma, offset_fraction", [(1.0, 0.0), (0.8, 0.1)])
    def test_pipeline_is_the_public_chain(self, monkeypatch, clamp, gamma, offset_fraction):
        # one kernel call, one profile evaluation, and the bits of the README Quickstart chain for both statistics
        series = series_from_values(growing_variance_levels(200, seed=42))
        config = PipelineConfig(gamma=gamma, offset_fraction=offset_fraction, clamp=clamp)
        calls = self.profile_evaluations(monkeypatch)
        report_std, report_mod = run_test_pipeline(series, config)
        assert len(calls) == 1

        residuals, window, fit = self.public_chain(series, report_std.ar_order, config)
        assert report_std.statistic == statistic_subsample(residuals, window)
        assert report_mod.statistic == statistic_corrected(residuals, fit, positivity="clamp" if clamp else "error")
        assert (report_mod.poly_order, report_mod.poly_coefficients, report_mod.poly_rss) == (
            fit.order, fit.coefficients, fit.rss
        )

    def test_a_failure_of_q_std_wins_over_a_failure_of_the_profile_search(self):
        # 10 levels alternating in sign, tested as they are: the AR(0) residuals are +-1, so Q_std's squares
        # are constant, and floor(10**0.35) = 2 leaves the order-1 profile design 2 rows for 2 columns
        series = series_from_values(np.tile([1.0, -1.0], 5))
        config = PipelineConfig(diff_order=0, ar_order=0, gamma=0.35)
        residuals = fit_ar_ols(series.values, 0, intercept=True).residuals
        window = SubsampleWindow.from_exponent(residuals.n, 0.35)
        with pytest.raises(SingularDesignError, match="^order 1 design has 2 rows for 2 columns$"):
            select_poly_order_aic(residuals, window, 1)
        with pytest.raises(ZeroDispersionError, match="^statistic-std: squared residuals are empirically constant"):
            run_test_pipeline(series, config)

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
        assert outcomes(np.ldexp(levels, k), config) == outcomes(levels, config)

    @pytest.mark.parametrize("k", [-1060, -1050, -1040, 1000])
    def test_scaling_to_the_edges_of_the_float_range_changes_no_outcome(self, k):
        # integer levels of at most 11 bits scale exactly, down among the subnormals,
        # and the residuals are unit-scaled before any of them is formed in true units
        rng = np.random.default_rng(5)
        levels = np.round(np.cumsum(rng.standard_normal(300)) * 40 * np.linspace(1, 3, 300))
        config = PipelineConfig(clamp=True)
        assert outcomes(np.ldexp(levels, k), config) == outcomes(levels, config)

    def test_residuals_past_the_float_max_give_the_unit_size_statistics(self):
        config = PipelineConfig(diff_order=0, ar_order=0, clamp=True)
        assert outcomes(np.ldexp(split_levels(), 1025), config) == outcomes(split_levels(), config)

    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("k", [1025, -1000])
    def test_clamp_warning_outside_the_float_range_reads_as_the_unit_size_warning(self, k, clamp):
        # times 2**1025 a true-unit floor is inf, times 2**-1000 it is 0; a strict run's error words the same values
        config = PipelineConfig(diff_order=0, ar_order=0, clamp=clamp)
        number = r"\S+(?: \* 2\*\*-?\d+)?"
        pattern = (
            rf"variance profile floored at (?P<floor>{number}) \(minimum (?P<minimum>{number}) at t=(?P<t>\d+)\)"
            if clamp
            else rf"statistic-mod: fitted variance dips to (?P<minimum>{number}) at t=(?P<t>\d+) "
            rf"\(positivity floor (?P<floor>{number})\); clamp explicitly or refit with a lower order"
        )

        def message(levels):
            series = series_from_values(levels)
            if clamp:
                (warning,) = run_test_pipeline(series, config)[1].warnings
                return re.fullmatch(pattern, warning)
            with pytest.raises(NonpositiveVarianceError) as info:
                run_test_pipeline(series, config)
            return re.fullmatch(pattern, str(info.value))

        floor, minimum, t = message(split_levels()).group("floor", "minimum", "t")
        scaled_floor, scaled_minimum, scaled_t = message(np.ldexp(split_levels(), k)).group("floor", "minimum", "t")
        assert "*" not in floor + minimum and "*" in scaled_floor and "*" in scaled_minimum
        assert scaled_t == t

        def read_back(text):  # m * 2**p, divided by 2**(2k) exactly
            mantissa, power = text.split(" * 2**")
            return math.ldexp(float(mantissa), int(power) - 2 * k)

        assert read_back(scaled_floor) == pytest.approx(float(floor), rel=1e-5)
        assert read_back(scaled_minimum) == pytest.approx(float(minimum), rel=1e-5)

    def test_subsample_window_configuration(self):
        series = white_noise_series(300, seed=6)
        config = PipelineConfig(diff_order=0, gamma=0.8, offset_fraction=0.1, clamp=True)
        report_std, _ = run_test_pipeline(series, config)
        assert report_std.window_offset > 0
        assert report_std.window_length < report_std.n_effective


@st.composite
def _levels_and_configs(draw):
    """Levels, a power of two k that keeps them and their differences normal floats, and a pipeline configuration.

    The levels are a random walk whose steps follow an AR(1) with a smoothly growing scale, drawn from a seeded
    generator: continuous values, whose AR and profile fits are never exact, so both pipelines compare statistics
    of residuals and not of rounding noise.
    """
    count = draw(st.integers(12, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi, growth = draw(st.floats(-0.5, 0.9)), draw(st.floats(0.0, 8.0))
    sigma = 1.0 + growth * (np.arange(1, count) / count) ** 2
    steps = [0.0]
    for shock in sigma * rng.standard_normal(count - 1):
        steps.append(phi * steps[-1] + shock)
    levels = np.ldexp(draw(st.floats(-100.0, 100.0)) + np.cumsum(steps), draw(st.integers(-20, 20)))
    magnitudes = np.frexp(np.abs(levels[levels != 0.0]))[1]  # 2**(e - 1) <= |level| < 2**e
    k = min(max(draw(st.integers(-1000, 1000)), -1021 - magnitudes.min()), 1021 - magnitudes.max())
    gamma, offset_fraction = draw(st.sampled_from([(1.0, 0.0), (0.9, 0.05)]))
    config = PipelineConfig(
        diff_order=draw(st.integers(0, 2)),
        ar_order=draw(st.one_of(st.none(), st.integers(0, 3))),
        p_max=draw(st.integers(1, 5)),
        gamma=gamma,
        offset_fraction=offset_fraction,
        clamp=draw(st.booleans()),
    )
    return levels, int(k), draw(st.sampled_from([1, 3])), config


class TestLiteralPipeline:
    @settings(deadline=None)
    @given(case=_levels_and_configs())
    def test_the_pipeline_on_scaled_levels_is_the_literal_pipeline_on_the_levels(self, case):
        levels, k, step_months, config = case

        def series(values):
            dates = month_starts(datetime.date(1990, 1, 1), len(values), step_months)
            return SeriesFile(tuple(dates), values, "monthly" if step_months == 1 else "quarterly", "SYN")

        ties = []
        try:
            expected = pipeline_literal(series(levels), config, ties)
        except VarbreakError as exc:
            expected = exc
        # at a near tie of two AIC scores, or of the profile minimum and its floor, two correct
        # least-squares routines may decide either way: only these examples are left out
        assume(not ties)
        try:
            reports = run_test_pipeline(series(np.ldexp(levels, k)), config)
        except VarbreakError as exc:
            assert type(exc) is type(expected), (exc, expected)
            return
        assert not isinstance(expected, VarbreakError), (reports, expected)
        assert [r.ar_order for r in reports] == [expected["ar_order"]] * 2
        assert reports[1].poly_order == expected["poly_order"]
        # 1e-10 relative, widened by the cancellation in forming the residuals: where an AR model nearly
        # interpolates a few levels, max|x| / max|u| reaches 1e4, and the rounding of the data alone then
        # moves either pipeline's statistics by more than 1e-10
        tolerance = 1e-10 * max(1.0, expected["cancellation"])
        for report, statistic, p_value, reject in zip(
            reports, expected["statistics"], expected["p_values"], expected["reject"]
        ):
            assert math.isclose(report.statistic, statistic, rel_tol=tolerance), (report.kind, statistic)
            # |d log p / d log Q| <= 1 + 4 Q**2 for the Kolmogorov tail
            assert math.isclose(report.p_value, p_value, rel_tol=tolerance * (1 + 4 * statistic**2)), report.kind
            assert report.reject == reject
        assert any("floored" in warning for warning in reports[1].warnings) == expected["floored"]


_ODD_FLOATS = st.one_of(
    st.floats(),  # NaN, infinities, signed zeros and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
                     2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
)
_FLOAT_TUPLES = st.lists(_ODD_FLOATS, max_size=4).map(tuple)
_ODD_REPORT_FIELDS = st.fixed_dictionaries({
    "statistic": _ODD_FLOATS,
    "p_value": _ODD_FLOATS,
    "ar_coefficients": _FLOAT_TUPLES,
    "ar_intercept": _ODD_FLOATS,
    "poly_coefficients": _FLOAT_TUPLES,
    "poly_aic_scores": st.lists(st.tuples(st.integers(0, 5), _ODD_FLOATS), max_size=4).map(tuple),
    "warnings": st.lists(
        st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2028 \U0001f600", 'say "hi"\n'])),
        max_size=3,
    ).map(tuple),
})
_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _exact(value):
    """``value`` with each float as its exact hex digits, or as the token JSON writes for NaN or an infinity, and each
    tuple as a list: what a lossless JSON document reads back as, with its NaN and infinity tokens kept as text."""
    if isinstance(value, float):
        return value.hex() if math.isfinite(value) else _JSON_TOKENS[repr(value)]
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


class TestEmitTestReports:
    @pytest.fixture(scope="class")
    def reports(self):
        series = white_noise_series(100, seed=7)
        return list(run_test_pipeline(series, PipelineConfig(diff_order=0)))

    @given(fields=st.lists(_ODD_REPORT_FIELDS, min_size=2, max_size=2))
    @example(fields=[{}, {}])  # the reports as the pipeline gave them
    def test_json_round_trip_is_lossless(self, reports, fields):
        items = [dataclasses.replace(r, **f) for r, f in zip(reports, fields)]
        text = emit_report(items, "json")
        assert text.isascii() and text.endswith("}\n")
        payload = json.loads(text, parse_constant=str)  # NaN, Infinity and -Infinity read back as their tokens
        assert payload["schema_version"] == 1
        assert _exact(payload["reports"]) == _exact([vars(r) for r in items])

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
    def test_empty_list_gives_no_rows(self):
        assert json.loads(emit_report([], "json"))["experiments"] == []

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
        (row,) = json.loads(emit_report([result], "json"))["experiments"]
        assert row["rate_std"] == result.rejection_rate_std
        assert row["se_std"] == result.se_std

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
