import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbreak import (
    DegenerateSeriesError,
    NonpositiveVarianceError,
    ResidualSeries,
    SubsampleWindow,
    VariancePolyFit,
    ZeroDispersionError,
    fit_variance_poly,
    sanso_trace,
    statistic_corrected,
    statistic_it,
    statistic_sanso,
    statistic_subsample,
)

from oracles import (
    corrected_statistic_literal,
    it_statistic_literal,
    sanso_statistic_literal,
    subsample_statistic_literal,
)


def series_from_squares(squares) -> ResidualSeries:
    return ResidualSeries(np.sqrt(np.asarray(squares, dtype=np.float64)))


def constant_profile_fit(window: SubsampleWindow, value: float) -> VariancePolyFit:
    return VariancePolyFit(
        order=1,
        center=window.center,
        coefficients=(value, 0.0),
        rss=0.0,
        window=window,
        mean_sq=value,
    )


# a strategy for residual series whose squares are not all equal
def _dispersed_series(min_size=5, max_size=40):
    return (
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
        )
        .map(lambda v: np.asarray(v, dtype=np.float64))
        .filter(lambda v: np.ptp(v * v) > 1e-6 * (1.0 + np.max(v * v)))
    )


class TestStatisticIt:
    def test_constant_squares_give_zero(self):
        assert statistic_it(ResidualSeries([2.0, 2.0, 2.0, 2.0, 2.0])) == 0.0

    def test_hand_computed_example(self):
        s = series_from_squares([1.0, 2.0, 3.0, 4.0])
        assert statistic_it(s) == pytest.approx(math.sqrt(2.0) * 0.2, abs=1e-12)

    def test_all_zero_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            statistic_it(ResidualSeries([0.0, 0.0, 0.0, 0.0]))


class TestStatisticSanso:
    @given(
        a=st.floats(min_value=0.01, max_value=100.0),
        b=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_two_point_value_is_forced(self, a, b):
        # for n=2 the numerator and denominator both equal |a-b|/2
        if abs(a - b) < 1e-9 * (a + b):
            return
        s = series_from_squares([a, b])
        assert statistic_sanso(s) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)

    def test_hand_computed_example(self):
        s = series_from_squares([1.0, 2.0, 3.0, 4.0])
        expected = 0.5 * 2.0 / math.sqrt(1.25)
        assert statistic_sanso(s) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8944272, abs=1e-7)

    def test_constant_squares_raise(self):
        with pytest.raises(ZeroDispersionError):
            statistic_sanso(ResidualSeries([3.0, -3.0, 3.0, -3.0]))


class TestStatisticSubsample:
    def test_full_window_reduces_bit_for_bit(self):
        rng = np.random.default_rng(5)
        s = ResidualSeries(rng.standard_normal(37))
        assert statistic_subsample(s, SubsampleWindow.full(37)) == statistic_sanso(s)

    def test_windowed_equals_sanso_on_slice(self):
        s = series_from_squares([9.0, 9.0, 1.0, 2.0, 3.0, 4.0, 9.0, 9.0])
        w = SubsampleWindow(n=8, offset=2, length=4)
        inner = series_from_squares([1.0, 2.0, 3.0, 4.0])
        assert statistic_subsample(s, w) == pytest.approx(statistic_sanso(inner), rel=1e-12)
        assert statistic_subsample(s, w) == pytest.approx(0.8944272, abs=1e-7)

    @given(data=st.data())
    def test_any_two_point_window_gives_inverse_sqrt2(self, data):
        values = data.draw(_dispersed_series(min_size=4, max_size=20))
        s = ResidualSeries(values)
        offset = data.draw(st.integers(min_value=0, max_value=s.n - 2))
        w = SubsampleWindow(n=s.n, offset=offset, length=2)
        a, b = values[offset] ** 2, values[offset + 1] ** 2
        if abs(a - b) < 1e-9 * (a + b + 1.0):
            return
        assert statistic_subsample(s, w) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)


class TestStatisticCorrected:
    def test_unit_profile_equals_subsample(self):
        rng = np.random.default_rng(3)
        s = ResidualSeries(rng.standard_normal(50))
        w = SubsampleWindow.full(50)
        fit = constant_profile_fit(w, 1.0)
        assert statistic_corrected(s, w, fit) == pytest.approx(
            statistic_subsample(s, w), rel=1e-12
        )

    def test_constant_profile_cancels(self):
        rng = np.random.default_rng(4)
        s = ResidualSeries(rng.standard_normal(64))
        w = SubsampleWindow(n=64, offset=10, length=40)
        fit = constant_profile_fit(w, 7.3)
        assert statistic_corrected(s, w, fit) == pytest.approx(
            statistic_subsample(s, w), rel=1e-12
        )

    def test_matches_literal_oracle_with_fitted_profile(self):
        # residuals with a genuinely linear variance profile
        rng = np.random.default_rng(12)
        n = 200
        w = SubsampleWindow.full(n)
        t = np.arange(1, n + 1)
        g2 = 1.0 + 0.8 * (t / n - 0.5)
        s = ResidualSeries(np.sqrt(g2) * rng.standard_normal(n))
        fit = fit_variance_poly(s, w, 1)
        expected = corrected_statistic_literal(
            s.values, w.offset, w.length, n, fit.coefficients, fit.center
        )
        assert statistic_corrected(s, w, fit) == pytest.approx(expected, abs=1e-10)

    def test_nonpositive_profile_raises_by_default(self):
        rng = np.random.default_rng(6)
        s = ResidualSeries(rng.standard_normal(100) + 2.0)
        w = SubsampleWindow.full(100)
        bad_fit = constant_profile_fit(w, 1.0)
        bad_fit = VariancePolyFit(
            order=1,
            center=w.center,
            coefficients=(0.001, -10.0),
            rss=0.0,
            window=w,
            mean_sq=float(np.mean(s.values**2)),
        )
        with pytest.raises(NonpositiveVarianceError):
            statistic_corrected(s, w, bad_fit)
        # clamping floors the profile; "none" evaluates literally; both produce numbers
        clamped = statistic_corrected(s, w, bad_fit, positivity="clamp")
        blind = statistic_corrected(s, w, bad_fit, positivity="none")
        assert math.isfinite(clamped) and math.isfinite(blind)

    def test_constant_rescaled_squares_raise(self):
        s = series_from_squares([2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        w = SubsampleWindow.full(6)
        fit = fit_variance_poly(s, w, 1)
        with pytest.raises(ZeroDispersionError):
            statistic_corrected(s, w, fit)

    def test_fit_and_window_length_must_agree(self):
        rng = np.random.default_rng(7)
        s = ResidualSeries(rng.standard_normal(30))
        fit = fit_variance_poly(s, SubsampleWindow.full(30), 1)
        other = ResidualSeries(rng.standard_normal(40))
        with pytest.raises(ValueError):
            statistic_corrected(other, SubsampleWindow.full(40), fit)
        with pytest.raises(ValueError):  # same length, another window
            statistic_corrected(s, SubsampleWindow(n=30, offset=1, length=29), fit)

    def test_unknown_positivity_mode(self):
        rng = np.random.default_rng(8)
        s = ResidualSeries(rng.standard_normal(20))
        w = SubsampleWindow.full(20)
        with pytest.raises(ValueError):
            statistic_corrected(s, w, constant_profile_fit(w, 1.0), positivity="ignore")


class TestOracleEquivalence:
    def test_all_statistics_match_literal_reimplementations(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            values = rng.uniform(0.5, 1.5, size=n)
            s = ResidualSeries(values)
            assert statistic_it(s) == pytest.approx(it_statistic_literal(values), abs=1e-10)
            assert statistic_sanso(s) == pytest.approx(sanso_statistic_literal(values), abs=1e-10)
            q = int(rng.integers(3, n + 1))
            offset = int(rng.integers(0, n - q + 1))
            w = SubsampleWindow(n=n, offset=offset, length=q)
            assert statistic_subsample(s, w) == pytest.approx(
                subsample_statistic_literal(values, offset, q), abs=1e-10
            )
            if q >= 4:
                fit = fit_variance_poly(s, w, 1)
                expected = corrected_statistic_literal(
                    values, offset, q, n, fit.coefficients, fit.center
                )
                assert statistic_corrected(s, w, fit, positivity="none") == pytest.approx(
                    expected, abs=1e-10
                )


class TestScaleInvariance:
    @settings(max_examples=50)
    @given(data=st.data())
    def test_plain_statistics(self, data):
        values = data.draw(_dispersed_series())
        scale = data.draw(st.floats(min_value=1e-4, max_value=1e4))
        s = ResidualSeries(values)
        scaled = ResidualSeries(scale * values)
        assert statistic_it(scaled) == pytest.approx(statistic_it(s), rel=1e-8)
        assert statistic_sanso(scaled) == pytest.approx(statistic_sanso(s), rel=1e-8)
        w = SubsampleWindow(n=s.n, offset=1, length=s.n - 1)
        inner = values[1:] ** 2
        if np.ptp(inner) > 1e-6 * (1.0 + np.max(inner)):
            assert statistic_subsample(scaled, w) == pytest.approx(
                statistic_subsample(s, w), rel=1e-8
            )

    @settings(max_examples=25)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
    def test_corrected_with_refit(self, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(60) * np.linspace(1.0, 2.0, 60)
        s = ResidualSeries(values)
        scaled = ResidualSeries(scale * values)
        w = SubsampleWindow.full(60)
        stat = statistic_corrected(s, w, fit_variance_poly(s, w, 2), positivity="none")
        stat_scaled = statistic_corrected(
            scaled, w, fit_variance_poly(scaled, w, 2), positivity="none"
        )
        assert stat_scaled == pytest.approx(stat, rel=1e-8)


    @settings(max_examples=50)
    @given(values=_dispersed_series())
    @pytest.mark.parametrize("exponent", [-532, 266, 532])  # about 1e-160, 1e80, 1e160
    def test_extreme_power_of_two_scales_are_exact(self, exponent, values):
        s = ResidualSeries(values)
        scaled = ResidualSeries(np.ldexp(values, exponent))
        assert statistic_it(scaled) == statistic_it(s)
        assert statistic_sanso(scaled) == statistic_sanso(s)

    @pytest.mark.parametrize("scale", [1e-160, 1e80, 1e160])
    def test_extreme_decimal_scales(self, scale):
        s = ResidualSeries(np.random.default_rng(13).standard_normal(200))
        scaled = ResidualSeries(scale * s.values)
        assert statistic_it(scaled) == pytest.approx(statistic_it(s), rel=1e-12)
        assert statistic_sanso(scaled) == pytest.approx(statistic_sanso(s), rel=1e-12)


class TestTraceInvariants:
    @settings(max_examples=50)
    @given(values=_dispersed_series())
    def test_bridge_ends_at_zero_and_trace_is_sane(self, values):
        trace = sanso_trace(ResidualSeries(values))
        assert trace.statistic is not None and trace.statistic >= 0.0
        assert np.all(np.diff(trace.cumsums) >= 0.0)
        assert abs(trace.bridge[-1]) <= 1e-10 * max(1.0, trace.cumsums[-1])
