import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varbreak import (
    DegenerateSeriesError,
    NonpositiveVarianceError,
    ResidualSeries,
    SubsampleWindow,
    VarbreakError,
    VariancePolyFit,
    WindowBoundsError,
    ZeroDispersionError,
    check_positivity,
    fit_variance_poly,
    select_poly_order_aic,
    statistic_corrected,
    statistic_it,
    statistic_sanso,
    statistic_subsample,
)
from varbreak.cusum import _statistics

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
        unit_coefficients=(value, 0.0),
        unit_rss=0.0,
        window=window,
        unit_mean_sq=value,
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
    # the mean of n equal squares need not round to that square
    @pytest.mark.parametrize("value,n", [(2.0, 5), (0.7, 6), (0.7, 7), (0.7, 50), (0.7, 200)])
    def test_constant_squares_give_zero(self, value, n):
        assert statistic_it(ResidualSeries(np.full(n, value))) == 0.0

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
    # nearly equal squares, where eta - (C_n/n)**2 cancels to a wrong dispersion
    @example(a=95.53125, b=95.51986582503673)
    @example(a=16.164431929384484, b=16.164399492857218)
    @example(a=1.0, b=1.0000001)
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

    @pytest.mark.parametrize("n", [6, 7, 50, 200])
    def test_constant_squares_raise_despite_rounding_in_the_mean(self, n):
        # the mean of n equal squares need not round to that square
        with pytest.raises(ZeroDispersionError):
            statistic_sanso(ResidualSeries(np.full(n, 0.7)))


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

    @given(values=_dispersed_series(min_size=4, max_size=20), position=st.integers(0, 18))
    # nearly equal squares inside the window, where eta - (C_q/q)**2 cancels
    @example(values=np.sqrt([4.0, 95.53125, 95.51986582503673, 9.0]), position=1)
    @example(values=np.sqrt([1.0, 1.0000001, 7.0, 2.0]), position=0)
    def test_any_two_point_window_gives_inverse_sqrt2(self, values, position):
        s = ResidualSeries(values)
        offset = position % (s.n - 1)
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
        assert statistic_corrected(s, fit) == pytest.approx(
            statistic_subsample(s, w), rel=1e-12
        )

    def test_constant_profile_cancels(self):
        rng = np.random.default_rng(4)
        s = ResidualSeries(rng.standard_normal(64))
        w = SubsampleWindow(n=64, offset=10, length=40)
        fit = constant_profile_fit(w, 7.3)
        assert statistic_corrected(s, fit) == pytest.approx(
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
        assert statistic_corrected(s, fit) == pytest.approx(expected, abs=1e-10)

    def test_nonpositive_profile_raises_by_default(self):
        rng = np.random.default_rng(6)
        s = ResidualSeries(rng.standard_normal(100) + 2.0)
        w = SubsampleWindow.full(100)
        bad_fit = constant_profile_fit(w, 1.0)
        bad_fit = VariancePolyFit(
            order=1,
            unit_coefficients=(0.001, -10.0),
            unit_rss=0.0,
            window=w,
            unit_mean_sq=float(np.mean(s.values**2)),
        )
        with pytest.raises(NonpositiveVarianceError):
            statistic_corrected(s, bad_fit)
        # clamping floors the profile; "none" evaluates literally; both produce numbers
        clamped = statistic_corrected(s, bad_fit, positivity="clamp")
        blind = statistic_corrected(s, bad_fit, positivity="none")
        assert math.isfinite(clamped) and math.isfinite(blind)

    def test_constant_rescaled_squares_raise(self):
        s = series_from_squares([2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        w = SubsampleWindow.full(6)
        fit = fit_variance_poly(s, w, 1)
        with pytest.raises(ZeroDispersionError):
            statistic_corrected(s, fit)

    @pytest.mark.parametrize(
        "n,value,order", [(7, 0.7, 2), (13, 3.7, 2), (50, 3.7, 3), (2000, 3.7, 1)]
    )
    def test_constant_squares_with_a_fitted_profile_raise(self, n, value, order):
        # the fitted profile is constant only up to rounding
        s = ResidualSeries(np.full(n, value))
        w = SubsampleWindow.full(n)
        with pytest.raises(ZeroDispersionError):
            statistic_corrected(s, fit_variance_poly(s, w, order), positivity="none")

    def test_fit_and_window_length_must_agree(self):
        rng = np.random.default_rng(7)
        s = ResidualSeries(rng.standard_normal(30))
        fit = fit_variance_poly(s, SubsampleWindow.full(30), 1)
        other = ResidualSeries(rng.standard_normal(40))
        with pytest.raises(WindowBoundsError):
            statistic_corrected(other, fit)

    def test_unknown_positivity_mode(self):
        rng = np.random.default_rng(8)
        s = ResidualSeries(rng.standard_normal(20))
        w = SubsampleWindow.full(20)
        with pytest.raises(ValueError):
            statistic_corrected(s, constant_profile_fit(w, 1.0), positivity="ignore")


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
                assert statistic_corrected(s, fit, positivity="none") == pytest.approx(
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
        assert statistic_sanso(s) >= 0.0
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
        stat = statistic_corrected(s, fit_variance_poly(s, w, 2), positivity="none")
        stat_scaled = statistic_corrected(
            scaled, fit_variance_poly(scaled, w, 2), positivity="none"
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

    @pytest.mark.parametrize(
        "value,rel",
        [
            (2.0**-1000, 0.0),
            (2.0**1000, 0.0),
            (1e-300, 4e-16),
            (2.0**-1040, 0.0),
            (5e-324, 0.0),
            (2.0**1020, 0.0),
            (2.0**1023, 0.0),
            (1.7e308, 4e-16),
        ],
    )
    @pytest.mark.parametrize("positivity", ["error", "clamp", "none"])
    def test_extreme_constant_profiles_only_rescale(self, value, rel, positivity):
        # a constant profile only rescales the squares, but here their dispersion leaves the float
        # range, below 2**-1022 the squares divided by the profile overflow, and above 2**969 the
        # small ones are subnormal; statistic_corrected scales the profile in every positivity mode,
        # and a RuntimeWarning fails
        s = ResidualSeries(np.random.default_rng(17).standard_normal(1000))
        fit = constant_profile_fit(SubsampleWindow.full(s.n), value)
        assert statistic_corrected(s, fit, positivity=positivity) == pytest.approx(statistic_sanso(s), rel=rel, abs=0.0)

    @pytest.mark.parametrize(
        "coefficients,message",
        [
            ((0.0, 1.0), "exactly zero"),
            ((5e-324, 1.0), "spans more than the floating-point range"),
            ((2.0**-1000, 0.0, 2.0**100), "spans more than the floating-point range"),
        ],
        ids=["zero", "subnormal", "flushed-by-the-peak"],
    )
    def test_profile_through_zero_fails_by_name(self, coefficients, message):
        # a0 + (t/n - 1/2) is a0 at t = n/2 and about 0.5 at the ends; 2**-1000 + 2**100 (t/n - 1/2)**2 has no zero,
        # but its least entry, 2**-1000 at t = n/2, lies more than the float range below its peak, 2**98
        s = ResidualSeries(np.random.default_rng(17).standard_normal(1000))
        fit = VariancePolyFit(
            order=len(coefficients) - 1,
            unit_coefficients=coefficients,
            unit_rss=0.0,
            window=SubsampleWindow.full(s.n),
            unit_mean_sq=1.0,
        )
        assert (fit.unit_profile == 0.0).any() == (message == "exactly zero")
        with pytest.raises(NonpositiveVarianceError, match=message):
            statistic_corrected(s, fit, positivity="none")


# Scales of the golden residuals, as functions of r in [-1, 1]: one growing
# linearly, and one dipping to zero at the midpoint.
_GOLDEN_PROFILES = {"growing": lambda r: np.linspace(1.0, 2.0, r.size), "dip": lambda r: r * r}

# (profile, n): repr of statistic_subsample on the full and on the inner
# window, then of statistic_corrected on the inner window with positivity
# "error", "clamp" and "none"; an error reads as its type name.  Every fit
# and statistic runs at unit scale, so each power-of-two scale in
# _GOLDEN_EXPONENTS gives these same values, bit for bit.
_GOLDEN = {
    ("growing", 50): ("0.7701428614281964", "1.195677962981897", "0.7684899684452186", "0.7684899684452186", "0.7684899684452186"),
    ("growing", 200): ("2.3856944174753387", "1.727934573554769", "0.49975500407382084", "0.49975500407382084", "0.49975500407382084"),
    ("growing", 2000): ("4.695443590210217", "3.6344395321196017", "0.42368844381604376", "0.42368844381604376", "0.42368844381604376"),
    ("dip", 50): ("1.3207754022635472", "0.9197736776478466", "NonpositiveVarianceError", "0.9285843718603076", "1.0125655386196382"),
    ("dip", 200): ("1.603572745506856", "1.8845441218372674", "NonpositiveVarianceError", "1.1673273338413237", "1.062485080115159"),
    ("dip", 2000): ("4.917462902101246", "3.7484212490409936", "NonpositiveVarianceError", "1.9272863216496519", "1.5699059761882128"),
}
# about 1e-181, 1e-160, 1, 1e80 and 1e181: squares and fourth powers of the
# extremes leave the float range
_GOLDEN_EXPONENTS = (-600, -532, 0, 266, 600)


def _outcome(function, *args, **kwargs) -> str:
    try:
        return repr(function(*args, **kwargs))
    except VarbreakError as exc:
        return type(exc).__name__


class TestGolden:
    @pytest.mark.parametrize(
        "profile,n,exponent", [(*key, exponent) for key in _GOLDEN for exponent in _GOLDEN_EXPONENTS]
    )
    def test_statistics_are_pinned(self, profile, n, exponent):
        r = np.linspace(-1.0, 1.0, n)
        values = np.random.default_rng(13).standard_normal(n) * _GOLDEN_PROFILES[profile](r)
        s = ResidualSeries(np.ldexp(values, exponent))
        inner = SubsampleWindow(n=n, offset=n // 10, length=n - n // 5)
        got = [
            _outcome(statistic_subsample, s, SubsampleWindow.full(n)),
            _outcome(statistic_subsample, s, inner),
        ]
        try:
            fit = select_poly_order_aic(s, inner, 3).fit
        except VarbreakError as exc:
            got += [type(exc).__name__] * 3
        else:
            got += [
                _outcome(statistic_corrected, s, fit, positivity=mode)
                for mode in ("error", "clamp", "none")
            ]
        assert tuple(got) == _GOLDEN[profile, n]


class TestRowKernel:
    @settings(deadline=None)
    @given(
        rows=st.integers(1, 5),
        n=st.integers(8, 200),
        p_max=st.integers(1, 5),
        inner=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_is_the_public_chain_on_that_row(self, rows, n, p_max, inner, seed):
        # rows of growing variance, at their own power-of-two scales: "floor" is statistic_subsample and
        # statistic_corrected(..., positivity="clamp") on the row's own AIC fit, "none" the profile as is,
        # and the least profile value sits at check_positivity's t whenever it is at the floor or below
        rng = np.random.default_rng(seed)
        growth = rng.uniform(0.0, 6.0, (rows, 1)) * np.linspace(0.0, 1.0, n)
        values = np.ldexp(rng.standard_normal((rows, n)) * np.exp(growth), rng.integers(-30, 31, (rows, 1)))
        window = SubsampleWindow(n, n // 10, n - n // 5) if inner else SubsampleWindow.full(n)
        p_max = min(p_max, window.length - 2)
        series = [ResidualSeries(v) for v in values]
        squares = np.stack([window.squares(s) for s in series])
        q_std, q_mod, failures_std, failures_mod, search = _statistics(squares, window, p_max, "floor")
        _, q_none, _, failures_none, search_none = _statistics(squares, window, p_max)
        for name, got, expected in zip(("ladder", "order", "coefficients", "rss"), search[:4], search_none, strict=True):
            np.testing.assert_array_equal(got, expected, err_msg=name)
        *_, mean_sq, least, index = search

        def agrees(value, failures, row, function, *args, **kwargs):
            try:
                expected = function(*args, **kwargs)
            except VarbreakError as exc:
                return type(failures.get(row)) is type(exc) and str(failures[row]) == str(exc)
            return row not in failures and float(value[row]) == expected

        for row, s in enumerate(series):
            fit = select_poly_order_aic(s, window, p_max).fit
            assert agrees(q_std, failures_std, row, statistic_subsample, s, window)
            assert agrees(q_mod, failures_mod, row, statistic_corrected, s, fit, positivity="clamp")
            assert agrees(q_none, failures_none, row, statistic_corrected, s, fit, positivity="none")
            assert mean_sq[row] == fit.unit_mean_sq
            assert least[row] == fit.unit_profile.min()
            t_min = window.offset + 1 + int(index[row])
            assert check_positivity(fit) == (None if least[row] > fit.unit_floor else t_min)
