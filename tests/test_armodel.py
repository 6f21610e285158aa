import numpy as np
import pytest

from varbreak import (
    SingularDesignError,
    default_max_order,
    fit_ar_ols,
    select_ar_order,
)


class TestFitArOls:
    def test_exact_linear_recurrence(self):
        x = 0.4 ** np.arange(50)  # x_t = 0.4 * x_{t-1}, x_0 = 1, zero noise
        fit = fit_ar_ols(x, 1)
        assert fit.coefficients[0] == pytest.approx(0.4, abs=1e-10)
        assert np.max(np.abs(fit.residuals.values)) < 1e-12
        assert fit.n_effective == 49

    def test_order_zero_returns_input(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        fit = fit_ar_ols(x, 0)
        np.testing.assert_array_equal(fit.residuals.values, x)

    def test_residuals_match_their_definition(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(200).cumsum() * 0.1 + rng.standard_normal(200)
        fit = fit_ar_ols(x, 2, intercept=True)
        a1, a2 = fit.coefficients
        manual = x[2:] - fit.intercept - a1 * x[1:-1] - a2 * x[:-2]
        np.testing.assert_allclose(fit.residuals.values, manual, atol=1e-10)

    def test_regressor_orthogonality(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(300)
        fit = fit_ar_ols(x, 3, intercept=True)
        design = np.column_stack(
            [np.ones(297), x[2:-1], x[1:-2], x[:-3]]
        )
        gradient = design.T @ fit.residuals.values
        assert np.max(np.abs(gradient)) < 1e-8 * np.max(np.abs(x))

    def test_shift_equivariance_with_intercept(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(150)
        base = fit_ar_ols(x, 2, intercept=True)
        shifted = fit_ar_ols(x + 100.0, 2, intercept=True)
        np.testing.assert_allclose(
            shifted.residuals.values, base.residuals.values, atol=1e-10
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ar_ols([1.0, 2.0, 3.0], -1)
        with pytest.raises(ValueError):
            fit_ar_ols([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            fit_ar_ols([1.0, np.nan, 3.0, 4.0], 1)


class TestSelectArOrder:
    def test_white_noise_prefers_order_zero(self):
        rng = np.random.default_rng(500)
        chosen = [select_ar_order(rng.standard_normal(500), 4) for _ in range(500)]
        assert np.mean(np.asarray(chosen) == 0) > 0.5

    def test_ar1_with_tiny_noise_prefers_order_one(self):
        rng = np.random.default_rng(501)
        hits = 0
        for _ in range(200):
            noise = 1e-3 * rng.standard_normal(500)
            x = np.empty(500)
            prev = 1.0
            for i in range(500):
                prev = 0.4 * prev + noise[i]
                x[i] = prev
            hits += select_ar_order(x, 4) == 1
        assert hits > 100

    def test_constant_series_is_singular(self):
        with pytest.raises(SingularDesignError):
            select_ar_order(np.full(100, 3.0), 4)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            select_ar_order(np.arange(6.0), 4)


class TestDefaultMaxOrder:
    def test_frequency_conventions(self):
        assert default_max_order(300, "quarterly") == 8
        assert default_max_order(600, "monthly") == 12
        assert default_max_order(100, "unknown") == 4
        assert default_max_order(1600, "unknown") == 8

    def test_capped_for_short_series(self):
        assert default_max_order(10, "monthly") == 7
