import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbreak import (
    DegenerateSeriesError,
    ResidualSeries,
    SingularDesignError,
    SubsampleWindow,
    VariancePathSpec,
    VariancePolyFit,
    check_positivity,
    fit_variance_poly,
    select_poly_order_aic,
    simulate_dgp1,
    stream,
)
from varbreak.mc import McExperimentSpec
from varbreak.nulldist import DecisionRule

from oracles import polyval_naive


def series_with_squares(squares) -> ResidualSeries:
    return ResidualSeries(np.sqrt(np.asarray(squares, dtype=np.float64)))


def make_fit(window, coefficients, mean_sq=1.0) -> VariancePolyFit:
    return VariancePolyFit(
        order=len(coefficients) - 1,
        coefficients=tuple(coefficients),
        rss=0.0,
        window=window,
        mean_sq=mean_sq,
    )


class TestFit:
    def test_interpolates_exactly_linear_squares(self):
        n = 80
        w = SubsampleWindow.full(n)
        x = np.arange(1, n + 1) / n - w.center
        s = series_with_squares(2.0 + 3.0 * x)
        fit = fit_variance_poly(s, w, 1)
        assert fit.coefficients == pytest.approx((2.0, 3.0), abs=1e-9)
        assert fit.rss == pytest.approx(0.0, abs=1e-9)

    def test_constant_squares_are_in_span(self):
        s = series_with_squares(np.full(30, 5.5))
        fit = fit_variance_poly(s, SubsampleWindow.full(30), 1)
        assert fit.coefficients == pytest.approx((5.5, 0.0), abs=1e-9)
        assert fit.rss == pytest.approx(0.0, abs=1e-9)

    def test_recovers_quadratic_profile_in_simulation(self):
        # u_t**2 = g2(t/n) * eps_t**2 with a known quadratic g2
        truth = (2.0, 1.5, 3.0)
        reps = 100

        def sup_errors(q, seed):
            w = SubsampleWindow.full(q)
            x = np.arange(1, q + 1) / q - w.center
            g2 = polyval_naive(truth, x)
            errors = np.empty(reps)
            coefs = np.empty((reps, 3))
            for rep in range(reps):
                eps = stream(seed, rep).standard_normal(q)
                s = ResidualSeries(np.sqrt(g2) * eps)
                fit = fit_variance_poly(s, w, 2)
                coefs[rep] = fit.coefficients
                errors[rep] = np.max(np.abs(fit.profile() - g2))
            return errors, coefs

        err_small, _ = sup_errors(200, seed=91)
        err_big, coefs = sup_errors(2000, seed=92)
        mean = coefs.mean(axis=0)
        se = coefs.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - truth) <= 3.0 * se)
        rmse_small = math.sqrt(np.mean(err_small**2))
        rmse_big = math.sqrt(np.mean(err_big**2))
        assert rmse_big < rmse_small

    def test_order_and_length_preconditions(self):
        s = ResidualSeries(np.ones(10))
        with pytest.raises(ValueError):
            fit_variance_poly(s, SubsampleWindow.full(10), 0)
        with pytest.raises(ValueError):
            fit_variance_poly(s, SubsampleWindow.full(10), 9)

    def test_degenerate_time_grid_is_singular(self):
        # a microscopic window deep inside a long series: the centered
        # powers become numerically indistinguishable
        rng = np.random.default_rng(0)
        n = 1_000_000
        s = ResidualSeries(rng.standard_normal(n) + 3.0)
        w = SubsampleWindow(n=n, offset=500_000, length=8)
        with pytest.raises(SingularDesignError):
            fit_variance_poly(s, w, 5)


class TestOrderSelection:
    def test_exact_linear_prefers_smallest_order(self):
        n = 60
        w = SubsampleWindow.full(n)
        x = np.arange(1, n + 1) / n - w.center
        s = series_with_squares(2.0 + 3.0 * x)
        selection = select_poly_order_aic(s, w, 4)
        assert selection.chosen_p == 1
        assert all(math.isfinite(score) for _, score in selection.scores)
        assert len(selection.scores) == 4

    def test_smoke_on_simulated_smooth_variance(self):
        spec = McExperimentSpec(
            dgp="dgp1",
            n=200,
            replications=1,
            path=VariancePathSpec(n=200),
            seed=31,
            decision=DecisionRule.fixed_boundary(),
        )
        s = simulate_dgp1(spec, 0)
        selection = select_poly_order_aic(s, SubsampleWindow.full(200), 5)
        assert 1 <= selection.chosen_p <= 5
        assert all(math.isfinite(score) for _, score in selection.scores)

    def test_returns_the_fit_of_the_chosen_order(self):
        rng = np.random.default_rng(3)
        s = ResidualSeries(rng.standard_normal(150) * np.linspace(1.0, 3.0, 150))
        w = SubsampleWindow(n=150, offset=10, length=120)
        selection = select_poly_order_aic(s, w, 5)
        assert selection.fit.order == selection.chosen_p
        assert selection.fit.window == w
        squares = s.values[w.offset : w.stop] ** 2
        floor = 1e-12 * np.mean(squares * squares)
        for p, score in selection.scores:
            refit = fit_variance_poly(s, w, p)
            expected = w.length * math.log(max(refit.rss, floor) / w.length) + 2.0 * (p + 1)
            assert score == pytest.approx(expected, rel=1e-12)
            if p == selection.chosen_p:
                np.testing.assert_allclose(
                    selection.fit.coefficients, refit.coefficients, rtol=1e-10
                )
                assert selection.fit.rss == pytest.approx(refit.rss, rel=1e-12)
                assert selection.fit.mean_sq == refit.mean_sq

    def test_overflowing_squares_raise_a_named_error(self):
        # u**4 overflows at this scale, so no order has a finite AIC
        rng = np.random.default_rng(2)
        s = ResidualSeries(1e80 * rng.standard_normal(100))
        with pytest.raises(DegenerateSeriesError):
            select_poly_order_aic(s, SubsampleWindow.full(100), 3)

    def test_propagates_singular_order(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        s = ResidualSeries(rng.standard_normal(n) + 3.0)
        w = SubsampleWindow(n=n, offset=0, length=9)
        with pytest.raises(SingularDesignError, match="order"):
            select_poly_order_aic(s, w, 6)


class TestEvaluation:
    def test_center_returns_intercept(self):
        w = SubsampleWindow.full(100)
        fit = make_fit(w, (2.0, 3.0))
        assert fit.profile()[50 - 1] == 2.0

    def test_linear_step(self):
        w = SubsampleWindow.full(100)
        fit = make_fit(w, (2.0, 3.0))
        assert fit.profile()[60 - 1] == pytest.approx(2.3, abs=1e-12)

    @settings(max_examples=100)
    @given(
        coefficients=st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=7
        ),
        t=st.integers(min_value=1, max_value=500),
    )
    def test_horner_matches_naive_powers(self, coefficients, t):
        w = SubsampleWindow.full(500)
        fit = make_fit(w, coefficients)
        naive = polyval_naive(coefficients, t / 500 - w.center)
        assert fit.profile()[t - 1] == pytest.approx(naive, abs=1e-12, rel=1e-12)


class TestPositivity:
    def test_passes_on_a_safe_linear_profile(self):
        # window keeps |t/n - r0| <= 0.105, so min of 2 + 3x stays above 1.7
        w = SubsampleWindow(n=100, offset=40, length=20)
        fit = make_fit(w, (2.0, 3.0), mean_sq=2.0)
        report = check_positivity(fit)
        assert report.passed
        assert report.min_value >= 1.7
        assert report.floor == pytest.approx(0.02)

    def test_flags_a_sign_change(self):
        w = SubsampleWindow.full(100)
        fit = make_fit(w, (0.001, -10.0), mean_sq=1.0)
        report = check_positivity(fit)
        assert not report.passed
        assert report.min_value < 0.0
        assert 1 <= report.t_min <= 100

    def test_pass_rate_on_smooth_variance_fits(self):
        # fixed cubic fits on simulated smooth-variance data at n=200;
        # measured pass rate of the floor check is 89.5% under this seed
        spec = McExperimentSpec(
            dgp="dgp1",
            n=200,
            replications=1000,
            path=VariancePathSpec(n=200),
            seed=424242,
            decision=DecisionRule.fixed_boundary(),
        )
        w = SubsampleWindow.full(200)
        passed = 0
        for rep in range(1000):
            fit = fit_variance_poly(simulate_dgp1(spec, rep), w, 3)
            passed += check_positivity(fit).passed
        assert passed >= 850


class TestFitInvariants:
    def test_rss_is_nonincreasing_in_order(self):
        rng = np.random.default_rng(21)
        s = ResidualSeries(rng.standard_normal(120) * np.linspace(1.0, 2.0, 120))
        w = SubsampleWindow.full(120)
        rss = [fit_variance_poly(s, w, p).rss for p in range(1, 6)]
        for low, high in zip(rss[1:], rss[:-1]):
            assert low <= high * (1.0 + 1e-9)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(22)
        s = ResidualSeries(rng.standard_normal(150) + 2.0)
        w = SubsampleWindow(n=150, offset=20, length=100)
        fit = fit_variance_poly(s, w, 3)
        squares = s.values[w.offset : w.stop] ** 2
        x = w.times() / w.n - w.center
        design = np.vander(x, 4, increasing=True)
        gradient = design.T @ (squares - design @ np.asarray(fit.coefficients))
        assert np.max(np.abs(gradient)) < 1e-8 * np.max(squares)

    def test_center_is_the_window_midpoint_exactly(self):
        rng = np.random.default_rng(23)
        s = ResidualSeries(rng.standard_normal(90))
        w = SubsampleWindow(n=90, offset=13, length=51)
        fit = fit_variance_poly(s, w, 2)
        assert fit.center == w.center == (2 * 13 / 90 + 51 / 90) / 2

    @settings(max_examples=25)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_equivariance_under_square_scaling(self, scale):
        rng = np.random.default_rng(24)
        values = rng.standard_normal(70) + 1.5
        w = SubsampleWindow.full(70)
        base = fit_variance_poly(ResidualSeries(values), w, 2)
        scaled = fit_variance_poly(ResidualSeries(math.sqrt(scale) * values), w, 2)
        np.testing.assert_allclose(
            scaled.coefficients, scale * np.asarray(base.coefficients), rtol=1e-9
        )
        assert scaled.rss == pytest.approx(scale**2 * base.rss, rel=1e-9)

    def test_profile_error_medians_shrink_with_window_length(self):
        truth = (2.0, 1.5, 3.0)
        medians = []
        for q, seed in ((200, 61), (800, 62), (3200, 63)):
            w = SubsampleWindow.full(q)
            x = np.arange(1, q + 1) / q - w.center
            g2 = polyval_naive(truth, x)
            errors = []
            for rep in range(100):
                eps = stream(seed, rep).standard_normal(q)
                fit = fit_variance_poly(ResidualSeries(np.sqrt(g2) * eps), w, 2)
                errors.append(np.max(np.abs(fit.profile() - g2)))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]
