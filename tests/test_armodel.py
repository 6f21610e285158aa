import hashlib

import numpy as np
import pytest

from varbreak import (
    SingularDesignError,
    SubsampleWindow,
    default_max_order,
    fit_ar_ols,
    fit_variance_poly,
    select_ar_order,
    select_poly_order_aic,
)
from varbreak._ols import factorise, fit_factorised
from varbreak.armodel import _ar_design
from varbreak.series import ResidualSeries

from conftest import growing_variance_levels, split_levels
from oracles import aic_choice_literal


class TestFitArOls:
    def test_exact_linear_recurrence(self):
        x = 0.4 ** np.arange(50)  # x_t = 0.4 * x_{t-1}, x_0 = 1, zero noise
        fit = fit_ar_ols(x, 1)
        assert fit.coefficients[0] == pytest.approx(0.4, abs=1e-10)
        assert np.max(np.abs(fit.residuals.values)) < 1e-12
        assert fit.residuals.n == 49

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

    @pytest.mark.parametrize("k", [-1000, -60, -46, 43, 60, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # the fit runs at unit scale, so only the intercept and residuals
        # scale, and by exactly 2**k
        x = np.random.default_rng(20).standard_normal(150).cumsum() + 30.0
        base = fit_ar_ols(x, 3, intercept=True)
        scaled = fit_ar_ols(np.ldexp(x, k), 3, intercept=True)
        assert scaled.coefficients == base.coefficients
        assert scaled.intercept == np.ldexp(base.intercept, k)
        np.testing.assert_array_equal(scaled.residuals.values, np.ldexp(base.residuals.values, k))

    def test_residuals_past_the_float_max_stay_at_unit_scale(self):
        base = fit_ar_ols(split_levels(), 0, intercept=True)
        scaled = fit_ar_ols(np.ldexp(split_levels(), 1025), 0, intercept=True)
        np.testing.assert_array_equal(scaled.residuals.unit_values, base.residuals.unit_values)
        assert scaled.residuals.exponent == base.residuals.exponent + 1025
        past = np.abs(base.residuals.values) >= 0.5  # at least 2**1024 in true units
        assert past.sum() == 3 and np.isneginf(scaled.residuals.values[past]).all()
        np.testing.assert_array_equal(scaled.residuals.values[~past], np.ldexp(base.residuals.values[~past], 1025))
        assert scaled.intercept == np.ldexp(base.intercept, 1025)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ar_ols([1.0, 2.0, 3.0], -1)
        with pytest.raises(SingularDesignError, match="^AR\\(2\\) design has 1 rows for 2 columns$"):
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

    def test_equals_the_per_order_loop(self):
        # the vectorised choice is the literal loop's on the same RSS, ties included, over
        # short and long series of several kinds at power-of-two scales from 2**-1000 to 2**1000
        rng = np.random.default_rng(909)
        for case in range(1200):
            n = int(rng.integers(6, 250))
            max_order = int(rng.integers(0, min(12, (n - 2) // 2) + 1))
            noise = rng.standard_normal(n)
            if case % 3 == 1:
                noise = np.cumsum(noise)  # a random walk
            elif case % 3 == 2:
                noise[2:] += 1.2 * noise[1:-1] - 0.5 * noise[:-2]
            values = np.ldexp(noise, int(rng.choice([0, 1, -1, 43, -43, 300, -300, 1000, -1000])))
            x = ResidualSeries(values).unit_values
            design = _ar_design(x, max_order, intercept=True)
            rss = fit_factorised(factorise(design, "AR design"), x[max_order:], ladder=True).rss[1:]
            expected = aic_choice_literal(rss, design.shape[0], 1, np.finfo(np.float64).tiny)
            assert select_ar_order(values, max_order) == expected

    @pytest.mark.parametrize("count,cap", [(661, 12), (270, 8)], ids=["monthly", "quarterly"])
    def test_numpy_qr_gives_a_column_major_design_the_bits_of_a_row_major_one(self, count, cap):
        # the premise of the column-major search design: numpy's QR copies its input into column-major order for
        # LAPACK, so Q and R, and with them every RSS and choice, come out alike, in the same layout
        x = ResidualSeries(np.diff(growing_variance_levels(count, 0))).unit_values
        rows, columns = _ar_design(x, cap, True), _ar_design(x, cap, True, layout="F")
        assert rows.flags.c_contiguous and columns.flags.f_contiguous and rows.shape == (count - 1 - cap, cap + 1)
        for a, b in zip(np.linalg.qr(rows), np.linalg.qr(columns)):
            assert a.strides == b.strides and a.tobytes() == b.tobytes()

    def test_orders_chosen_for_the_surrogates_are_pinned(self):
        # 100 monthly and 100 quarterly differenced surrogates at their frequency's cap
        orders = [
            select_ar_order(np.diff(growing_variance_levels(count, seed)), cap)
            for count, cap in ((661, 12), (270, 8))
            for seed in range(100)
        ]
        digest = hashlib.sha256(np.array(orders, dtype=np.int64).tobytes()).hexdigest()
        assert digest == "e11a22a48e1d3defc88dce7bb40f4f7de7fe4e22be6d636718702ef286731d30"

    def test_constant_series_is_singular(self):
        with pytest.raises(SingularDesignError):
            select_ar_order(np.full(100, 3.0), 4)

    def test_negative_max_order(self):
        with pytest.raises(ValueError, match="^max_order must be nonnegative, got -1$"):
            select_ar_order(np.arange(6.0), -1)

    def test_too_short_series(self):
        with pytest.raises(SingularDesignError, match="^AR\\(4\\) design has 2 rows for 5 columns$"):
            select_ar_order(np.arange(6.0), 4)


class TestDefaultMaxOrder:
    def test_frequency_conventions(self):
        assert default_max_order(300, "quarterly") == 8
        assert default_max_order(600, "monthly") == 12
        assert default_max_order(100, "unknown") == 4
        assert default_max_order(1600, "unknown") == 8

    @pytest.mark.parametrize("frequency", ["monthly", "quarterly", "unknown"])
    def test_largest_design_is_taller_than_wide(self, frequency):
        # n - cap rows by cap + 1 columns: one residual degree of freedom at least
        for n in range(3, 60):
            cap = default_max_order(n, frequency)
            assert n - cap > cap + 1

    def test_capped_for_short_series(self):
        # the largest AR design, n - cap rows by cap + 1 columns, must not be wide
        assert default_max_order(10, "monthly") == 4


def _poly(fit):
    return lambda x: fit(ResidualSeries(x), SubsampleWindow.full(x.size), 3)


#: A fit of order 3 on n values -> (the fit, its design's rows at n, its columns).
_ORDER_3_DESIGNS = {
    "fit_ar_ols": (lambda x: fit_ar_ols(x, 3), lambda n: max(n - 3, 0), 3),
    "fit_ar_ols_intercept": (lambda x: fit_ar_ols(x, 3, intercept=True), lambda n: max(n - 3, 0), 4),
    "select_ar_order": (lambda x: select_ar_order(x, 3), lambda n: max(n - 3, 0), 4),
    "fit_variance_poly": (_poly(fit_variance_poly), lambda n: n, 4),
    "select_poly_order_aic": (_poly(select_poly_order_aic), lambda n: n, 4),
}


def _lengths_up_to_the_first_accepted(rows, columns):
    n = 2  # the shortest series
    while rows(n) <= columns:
        yield n
        n += 1
    yield n


@pytest.mark.parametrize(
    "name, n",
    [
        (name, n)
        for name, (_, rows, columns) in _ORDER_3_DESIGNS.items()
        for n in _lengths_up_to_the_first_accepted(rows, columns)
    ],
)
def test_a_design_no_taller_than_wide_is_one_error_at_every_length(name, n):
    # from no rows at all up to a square design, the one error names the design's size
    fit, rows, columns = _ORDER_3_DESIGNS[name]
    x = np.random.default_rng(n).standard_normal(n)
    if rows(n) > columns:
        fit(x)
    else:
        with pytest.raises(SingularDesignError, match=f"design has {rows(n)} rows for {columns} columns$"):
            fit(x)
