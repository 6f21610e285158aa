import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbreak import (
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
from varbreak._ols import factorise, fit_factorised
from varbreak.mc import McExperimentSpec
from varbreak.nulldist import DecisionRule
from varbreak.variance_poly import AIC_RSS_FLOOR_FRAC, _centred_time, _design_factors

from oracles import aic_choice_literal, poly_aic_scores_literal, polyval_naive


def series_with_squares(squares) -> ResidualSeries:
    return ResidualSeries(np.sqrt(np.asarray(squares, dtype=np.float64)))


def make_fit(window, coefficients, mean_sq=1.0) -> VariancePolyFit:
    return VariancePolyFit(
        order=len(coefficients) - 1,
        unit_coefficients=tuple(coefficients),
        unit_rss=0.0,
        window=window,
        unit_mean_sq=mean_sq,
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
        with pytest.raises(SingularDesignError, match="^order 9 design has 10 rows for 10 columns$"):
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
                assert (selection.fit.unit_mean_sq, selection.fit.exponent) == (refit.unit_mean_sq, refit.exponent)

    def test_choice_and_scores_equal_the_per_order_literal(self):
        # on the same nested RSS, the chosen order is the literal loop's, ties included, and
        # the reported scores are the per-order expression's, bit for bit, at scales whose
        # true-unit RSS underflows to 0 (-inf) or overflows (inf) as well as ordinary ones;
        # 1,200 series
        rng = np.random.default_rng(910)
        for case in range(1200):
            n = int(rng.integers(7, 300))
            p_max = int(rng.integers(1, 6))
            length = int(rng.integers(p_max + 2, n + 1))
            window = SubsampleWindow(n=n, offset=int(rng.integers(0, n - length + 1)), length=length)
            t = np.arange(1, n + 1) / n
            if case % 4 == 0:
                values = rng.standard_normal(n) * np.linspace(1.0, 3.0, n)
            elif case % 4 == 1:  # squares an exact polynomial of order 0..3: floored RSS
                values = np.sqrt((1.0 + t) ** int(rng.integers(0, 4))) * rng.choice([-1.0, 1.0], n)
            elif case % 4 == 2:
                values = rng.logistic(size=n) * (1.0 + np.sin(3.0 * t) ** 2)
            else:  # a zero window outside zero values: every order scores -inf, a tie
                values = rng.standard_normal(n)
                values[window.offset : window.stop] = 0.0
            series = ResidualSeries(np.ldexp(values, int(rng.choice([0, 1, -1, 43, -266, 266, -600, 600]))))
            selection = select_poly_order_aic(series, window, p_max)
            squares = window.slice_values(series) ** 2
            design = np.vander(window.times() / n - window.center, p_max + 1, increasing=True)
            rss = fit_factorised(factorise(design, "design"), squares, ladder=True).rss[2:]
            floor = AIC_RSS_FLOOR_FRAC * ((squares * squares).sum() / length)
            assert selection.chosen_p == 1 + aic_choice_literal(rss, length, 2, floor)
            floored = np.maximum(rss, floor)
            assert selection.unit_rss == tuple(floored.tolist())
            with np.errstate(over="ignore"):
                true_rss = np.ldexp(floored, 4 * series.exponent)
            assert selection.scores == poly_aic_scores_literal(true_rss, length)

    def test_overflowing_scale_keeps_the_order_and_maps_the_fit(self):
        # at 2**266 u**4 overflows; the order is chosen at unit scale, and the
        # fit reads in true units: coefficients times 2**532, RSS beyond the float range
        values = np.random.default_rng(2).standard_normal(100) * np.linspace(1.0, 3.0, 100)
        w = SubsampleWindow.full(100)
        base = select_poly_order_aic(ResidualSeries(values), w, 3)
        scaled = select_poly_order_aic(ResidualSeries(np.ldexp(values, 266)), w, 3)
        assert scaled.chosen_p == base.chosen_p
        assert scaled.fit.coefficients == tuple(np.ldexp(base.fit.coefficients, 532))
        assert scaled.fit.unit_mean_sq == base.fit.unit_mean_sq
        assert scaled.fit.exponent == base.fit.exponent + 266
        np.testing.assert_array_equal(scaled.fit.profile(), np.ldexp(base.fit.profile(), 532))
        assert scaled.fit.rss == math.inf
        assert all(score == math.inf for _, score in scaled.scores)

    def test_propagates_singular_order(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        s = ResidualSeries(rng.standard_normal(n) + 3.0)
        w = SubsampleWindow(n=n, offset=0, length=9)
        with pytest.raises(SingularDesignError, match="order"):
            select_poly_order_aic(s, w, 6)


class TestDesignCache:
    """The factorisation of each window's polynomial design, computed once and shared."""

    @staticmethod
    def uncached(series, window, p):
        """Squares of the window values and their fits on a freshly built and factorised design."""
        squares = window.slice_values(series) ** 2
        design = np.vander(window.times() / window.n - window.center, p + 1, increasing=True)
        return squares, fit_factorised(factorise(design, "design"), squares, ladder=True)

    def test_cached_arrays_are_read_only(self):
        window = SubsampleWindow(n=80, offset=7, length=60)
        q, r, _ = _design_factors(window, 3)
        for array in (q, r, _centred_time(window)):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            q[0, 0] = 1.0
        assert _design_factors(window, 3)[0] is q

    def test_a_warm_cache_gives_the_bits_of_an_uncached_fit(self):
        rng = np.random.default_rng(17)
        series = ResidualSeries(rng.standard_normal(90) * np.linspace(1.0, 3.0, 90))
        window = SubsampleWindow(n=90, offset=5, length=70)
        for _ in range(2):  # the first call may fill the cache, the second reads it
            selection = select_poly_order_aic(series, window, 4)
            fits = [fit_variance_poly(series, window, p) for p in (1, 2, 3, 4)]
        squares, ols = self.uncached(series, window, 4)
        floor = AIC_RSS_FLOOR_FRAC * ((squares * squares).sum() / window.length)
        assert np.array(selection.unit_rss).tobytes() == np.maximum(ols.rss[2:], floor).tobytes()
        chosen = selection.chosen_p
        assert np.array(selection.fit.unit_coefficients).tobytes() == ols.coefficients(chosen + 1).tobytes()
        assert selection.fit.unit_rss == ols.rss[chosen + 1]
        for p, fit in enumerate(fits, 1):
            _, ols = self.uncached(series, window, p)
            assert np.array(fit.unit_coefficients).tobytes() == ols.coefficients(p + 1).tobytes()
            assert fit.unit_rss == ols.rss[p + 1]

    def test_windows_of_one_length_keep_their_own_design(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(120) * np.linspace(1.0, 2.0, 120)
        windows = [
            SubsampleWindow(n=100, offset=0, length=50),
            SubsampleWindow(n=120, offset=0, length=50),  # another n
            SubsampleWindow(n=100, offset=10, length=50),  # another offset
        ]
        for window in windows + windows:
            series = ResidualSeries(values[: window.n])
            fit = fit_variance_poly(series, window, 2)
            _, ols = self.uncached(series, window, 2)
            assert np.array(fit.unit_coefficients).tobytes() == ols.coefficients(3).tobytes()
            np.testing.assert_array_equal(_centred_time(window), window.times() / window.n - window.center)
        assert len({id(_design_factors(window, 2)[0]) for window in windows}) == 3

    def test_a_window_too_short_for_the_order_raises_on_every_call(self):
        series = ResidualSeries(np.random.default_rng(8).standard_normal(30))
        window = SubsampleWindow(n=30, offset=3, length=5)
        for _ in range(2):
            with pytest.raises(SingularDesignError, match="^order 4 design has 5 rows for 5 columns$"):
                select_poly_order_aic(series, window, 4)
            with pytest.raises(SingularDesignError, match="^order 5 design has 5 rows for 6 columns$"):
                fit_variance_poly(series, window, 5)


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
