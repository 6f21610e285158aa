import math

import numpy as np
import pytest

import varbreak.mc
from varbreak import (
    DecisionRule,
    ExperimentIntegrityError,
    McExperimentSpec,
    NonpositiveVarianceError,
    SubsampleWindow,
    VariancePathSpec,
    experiment_for_cell,
    fit_ar_ols,
    run_experiment,
    run_table,
    sample_innovations,
    select_poly_order_aic,
    simulate_dgp1,
    simulate_dgp2,
    statistic_corrected,
    statistic_subsample,
    stream,
    variance_path,
)


def make_spec(**overrides) -> McExperimentSpec:
    defaults = dict(
        dgp="dgp1",
        n=50,
        replications=20,
        path=VariancePathSpec(n=50),
        seed=9,
        decision=DecisionRule.fixed_boundary(),
    )
    defaults.update(overrides)
    if "n" in overrides and "path" not in overrides:
        defaults["path"] = VariancePathSpec(
            n=overrides["n"], alpha=defaults["path"].alpha, kappa=defaults["path"].kappa
        )
    return McExperimentSpec(**defaults)


def replication_statistics(spec, innovations):
    """Q_std and Q_mod of one replication of ``spec`` driven by ``innovations``."""
    if spec.dgp == "dgp2":
        residuals = fit_ar_ols(simulate_dgp2(spec, 0, innovations), 1).residuals
    else:
        residuals = simulate_dgp1(spec, 0, innovations)
    window = SubsampleWindow.full(residuals.n)
    fit = select_poly_order_aic(residuals, window, spec.poly_p_max).fit
    return (
        statistic_subsample(residuals, window),
        statistic_corrected(residuals, fit, positivity="none"),
    )


class TestVariancePath:
    def test_endpoint_value(self):
        path = variance_path(VariancePathSpec(n=400))
        assert path[-1] == pytest.approx(-2.7 + 1.5 * math.e**2, abs=1e-12)

    def test_midpoint_value(self):
        path = variance_path(VariancePathSpec(n=400))
        expected = -2.7 + 1.5 * math.exp(1.5) + 0.2  # sin(2.5*pi) = 1
        assert path[199] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.22253, abs=5e-6)

    def test_break_is_additive(self):
        base = variance_path(VariancePathSpec(n=400))
        shifted = variance_path(VariancePathSpec(n=400, alpha=2.0, kappa=0.5))
        assert shifted[199] == base[199] + 2.0
        assert shifted[198] == base[198]

    def test_path_is_positive(self):
        assert np.min(variance_path(VariancePathSpec(n=1000))) > 1.0

    def test_repeated_calls_return_equal_read_only_paths(self):
        first = variance_path(VariancePathSpec(n=300, alpha=1.5))
        second = variance_path(VariancePathSpec(n=300, alpha=1.5))
        np.testing.assert_array_equal(first, second)
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=1), dict(n=50, alpha=-0.5), dict(n=50, kappa=0.0), dict(n=50, kappa=1.0)],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            VariancePathSpec(**kwargs)


class TestInnovations:
    def test_law_of_large_numbers(self):
        draws = sample_innovations(10**6, stream(77, 0))
        assert -0.01 < draws.mean() < 0.01
        assert 0.99 < draws.var() < 1.01

    def test_streams_are_deterministic(self):
        first = sample_innovations(10, stream(123, 4))
        second = sample_innovations(10, stream(123, 4))
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, sample_innovations(10, stream(123, 5)))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_innovations(0, stream(1, 1))


class TestSimulateDgp1:
    def test_frozen_innovations_reproduce_the_path(self):
        spec = make_spec(n=64)
        series = simulate_dgp1(spec, 0, innovations=np.ones(64))
        np.testing.assert_allclose(
            series.values**2, variance_path(spec.path), rtol=1e-12
        )

    def test_determinism(self):
        spec = make_spec()
        np.testing.assert_array_equal(
            simulate_dgp1(spec, 3).values, simulate_dgp1(spec, 3).values
        )

    def test_pointwise_variance_matches_the_path(self):
        spec = make_spec(n=20, replications=1)
        t_index = 9
        draws = np.array([simulate_dgp1(spec, rep).values[t_index] for rep in range(10_000)])
        expected = variance_path(spec.path)[t_index]
        assert draws.var() == pytest.approx(expected, rel=0.05)


class TestSimulateDgp2:
    def test_zero_innovations_give_zero_path(self):
        spec = make_spec(n=30)
        x = simulate_dgp2(spec, 0, innovations=np.zeros(30))
        np.testing.assert_array_equal(x, np.zeros(30))

    def test_unit_errors_build_a_geometric_series(self):
        spec = make_spec(n=60)
        h = np.sqrt(variance_path(spec.path))
        x = simulate_dgp2(spec, 0, innovations=1.0 / h)  # forces u_t = 1
        assert x[0] == pytest.approx(1.0, rel=1e-12)
        assert x[1] == pytest.approx(1.4, rel=1e-12)
        assert x[-1] == pytest.approx(5.0 / 3.0, abs=1e-9)

    def test_ar1_ols_recovers_the_coefficient(self):
        spec = make_spec(n=200, replications=1000, seed=301)
        estimates = np.array(
            [fit_ar_ols(simulate_dgp2(spec, rep), 1).coefficients[0] for rep in range(1000)]
        )
        assert 0.35 < estimates.mean() < 0.42
        assert abs(estimates.mean() - 0.4) < 0.05


class TestRunExperiment:
    def test_results_are_deterministic(self):
        spec = make_spec(replications=40, keep_statistics=True)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.rejection_rate_std == second.rejection_rate_std
        np.testing.assert_array_equal(first.statistics_mod, second.statistics_mod)

    def test_worker_count_does_not_change_results(self):
        spec = make_spec(replications=40, keep_statistics=True)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        np.testing.assert_array_equal(serial.statistics_std, parallel.statistics_std)
        np.testing.assert_array_equal(serial.statistics_mod, parallel.statistics_mod)
        assert serial.rejection_rate_mod == parallel.rejection_rate_mod

    def test_innovation_scaling_cannot_move_any_statistic(self):
        # the raw standard logistic draws, variance pi**2/3, against the unit-variance ones
        for dgp in ("dgp1", "dgp2"):
            spec = make_spec(dgp=dgp, replications=30, keep_statistics=True)
            result = run_experiment(spec)
            for rep in range(spec.replications):
                unit = sample_innovations(spec.n, stream(spec.seed, rep))
                q_std, q_mod = replication_statistics(spec, unit)
                assert (q_std, q_mod) == (result.statistics_std[rep], result.statistics_mod[rep])
                raw_std, raw_mod = replication_statistics(spec, unit * (math.pi / math.sqrt(3.0)))
                assert raw_std == pytest.approx(q_std, rel=1e-8)
                assert raw_mod == pytest.approx(q_mod, rel=1e-8)

    def test_dgp2_runs_on_ar_residuals(self):
        result = run_experiment(make_spec(dgp="dgp2", n=60, replications=25))
        assert 0.0 <= result.rejection_rate_std <= 100.0
        assert result.n_valid_std == 25

    def test_hard_positivity_failures_abort_the_experiment(self, monkeypatch):
        def nonpositive(*args, **kwargs):
            raise NonpositiveVarianceError("fitted variance dips below the floor")

        monkeypatch.setattr(varbreak.mc, "statistic_corrected", nonpositive)
        with pytest.raises(ExperimentIntegrityError, match="NonpositiveVarianceError"):
            run_experiment(make_spec(replications=20))

    def test_nonfinite_statistics_count_as_failures(self, monkeypatch):
        monkeypatch.setattr(varbreak.mc, "statistic_subsample", lambda series, window: math.nan)
        with pytest.raises(ExperimentIntegrityError, match="NonFiniteStatistic"):
            run_experiment(make_spec(replications=20))

    def test_binomial_standard_error(self):
        result = run_experiment(make_spec(replications=100, seed=8))
        rate = result.rejection_rate_std / 100.0
        assert result.se_std == pytest.approx(100.0 * math.sqrt(rate * (1 - rate) / 100.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(dgp="dgp3")
        with pytest.raises(ValueError):
            make_spec(replications=0)
        with pytest.raises(ValueError):
            McExperimentSpec(
                dgp="dgp1",
                n=60,
                replications=5,
                path=VariancePathSpec(n=50),
                seed=1,
                decision=DecisionRule.fixed_boundary(),
            )

    @pytest.mark.parametrize("dgp,n,n_min", [("dgp1", 4, 5), ("dgp2", 5, 6), ("dgp2", 2, 6)])
    def test_spec_rejects_n_below_the_fit_minimum(self, dgp, n, n_min):
        with pytest.raises(ValueError, match=f"needs n >= {n_min}, got {n}"):
            make_spec(dgp=dgp, n=n)

    @pytest.mark.parametrize("dgp,n", [("dgp1", 5), ("dgp2", 6)])
    def test_smallest_accepted_n_runs(self, dgp, n):
        result = run_experiment(make_spec(dgp=dgp, n=n))
        assert result.n_valid_std == result.n_valid_mod == 20


class TestTables:
    def test_size_table_shape(self):
        table = run_table(1, seed=13, replications=25)
        assert table.kind == "size" and table.dgp == "dgp1"
        assert len(table.results) == 3
        cell = table.cell(100, 0.0)
        assert cell.spec.n == 100
        assert 0.0 <= cell.rejection_rate_mod <= 100.0

    def test_power_table_shape(self):
        table = run_table(4, seed=13, replications=10)
        assert table.kind == "power" and table.dgp == "dgp2"
        assert len(table.results) == 15

    def test_cells_use_distinct_derived_seeds(self):
        a = experiment_for_cell(1, 50, 0.0, seed=7)
        b = experiment_for_cell(1, 100, 0.0, seed=7)
        c = experiment_for_cell(1, 50, 0.0, seed=7)
        assert a.seed != b.seed
        assert a.seed == c.seed

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            run_table(5, seed=1)
