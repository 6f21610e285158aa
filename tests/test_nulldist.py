import numpy as np
import pytest
from scipy.special import kolmogorov as scipy_kolmogorov_sf
from scipy.stats import kstwobign

from varbreak import DecisionRule, kolmogorov_cdf, kolmogorov_quantile, pvalue


class TestCdf:
    def test_at_zero(self):
        assert kolmogorov_cdf(0.0) == 0.0

    def test_far_tail(self):
        assert kolmogorov_cdf(10.0) == pytest.approx(1.0, abs=1e-12)

    def test_ninety_five_percent_point(self):
        assert kolmogorov_cdf(1.3581) == pytest.approx(0.95, abs=2e-4)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            kolmogorov_cdf(-0.1)

    def test_nan_argument(self):
        # a NaN fails every comparison, so a test of ``x < 0`` would let it through as 1.0
        with pytest.raises(ValueError, match="x must be nonnegative, got nan"):
            kolmogorov_cdf(float("nan"))

    def test_monotone_and_bounded_on_grid(self):
        grid = np.linspace(0.0, 3.0, 1000)
        values = [kolmogorov_cdf(x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_against_scipy_survival_function(self):
        for x in np.linspace(0.3, 2.5, 45):
            assert kolmogorov_cdf(float(x)) == pytest.approx(
                1.0 - float(scipy_kolmogorov_sf(x)), abs=1e-9
            )

    def test_lower_tail_has_full_relative_precision(self):
        # the alternating series cancels to nothing here: 6.6e-53 at x = 0.1
        for x in np.linspace(0.1, 1.0, 181):
            assert kolmogorov_cdf(float(x)) == pytest.approx(
                float(kstwobign.cdf(x)), rel=1e-12, abs=0.0
            )


class TestQuantile:
    def test_ninety_five_percent(self):
        assert kolmogorov_quantile(0.95) == pytest.approx(1.3581, abs=5e-4)

    def test_round_trip_through_cdf(self):
        assert kolmogorov_quantile(kolmogorov_cdf(1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_median_bracket(self):
        assert 0.8 < kolmogorov_quantile(0.5) < 0.9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            kolmogorov_quantile(p)

    def test_identity_on_grid(self):
        for x in np.linspace(0.3, 2.5, 23):
            assert kolmogorov_quantile(kolmogorov_cdf(float(x))) == pytest.approx(
                float(x), abs=1e-8
            )

    def test_round_trip_over_the_whole_range(self):
        for p in [*np.logspace(-300, -1, 60), 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-15]:
            assert kolmogorov_cdf(kolmogorov_quantile(float(p))) == pytest.approx(
                float(p), rel=1e-6, abs=0.0
            )

    def test_inversion_tolerance(self):
        for p in (0.01, 0.5, 0.9, 0.95, 0.99):
            assert abs(kolmogorov_cdf(kolmogorov_quantile(p)) - p) < 1e-10


class TestPvalue:
    def test_at_zero(self):
        assert pvalue(0.0) == 1.0

    def test_at_the_boundary(self):
        assert pvalue(1.3581) == pytest.approx(0.05, abs=2e-4)

    def test_large_statistic(self):
        assert pvalue(4.14) < 0.001

    def test_negative_statistic(self):
        with pytest.raises(ValueError):
            pvalue(-1.0)

    def test_nan_statistic(self):
        # read as 0.0 before, a p-value that rejects at every level
        with pytest.raises(ValueError, match="statistic must be nonnegative, got nan"):
            pvalue(float("nan"))

    def test_upper_tail_has_full_relative_precision(self):
        # 1 - cdf would read 0.0 from x = 5.0 (true value 3.857e-22)
        for x in np.linspace(1.0, 8.0, 141):
            assert pvalue(float(x)) == pytest.approx(
                float(scipy_kolmogorov_sf(x)), rel=1e-12, abs=0.0
            )


class TestDecisionRule:
    def test_asymptotic_computes_the_quantile(self):
        rule = DecisionRule.asymptotic(0.05)
        assert rule.critical_value == pytest.approx(1.3581, abs=5e-4)
        assert rule.source == "asymptotic"
        assert rule.level == 0.05

    def test_fixed_boundary_is_133(self):
        rule = DecisionRule.fixed_boundary()
        assert rule.critical_value == 1.33
        assert rule.source == "boundary"

    def test_asymptotic_boundary_has_the_level_as_its_tail(self):
        # inverting the CDF at 1 - level rounds: the tail was 0.5% off at level 1e-14,
        # and below about 1.1e-16 the search failed on p = 1.0
        for level in np.logspace(-6, -300, 60):
            rule = DecisionRule.asymptotic(float(level))
            assert pvalue(rule.critical_value) == pytest.approx(float(level), rel=1e-10, abs=0.0)

    def test_asymptotic_boundary_at_large_levels_is_the_quantile(self):
        # 1 - level is exact from 0.5 up, so the CDF inversion is a reference there
        for level in np.linspace(0.5, 0.999, 100):
            rule = DecisionRule.asymptotic(float(level))
            assert rule.critical_value == pytest.approx(kolmogorov_quantile(1.0 - float(level)), rel=0.0, abs=2e-12)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_asymptotic_names_a_bad_level(self, level):
        with pytest.raises(ValueError, match=f"level must be in \\(0, 1\\), got {level}"):
            DecisionRule.asymptotic(level)

    def test_the_two_rules_differ(self):
        assert DecisionRule.asymptotic(0.05).critical_value != DecisionRule.fixed_boundary().critical_value

    def test_rejection_is_strict(self):
        rule = DecisionRule(2.0, None, "user")
        assert not rule.rejects(2.0)
        assert rule.rejects(2.0000001)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionRule(-1.0, None, "user")
        with pytest.raises(ValueError):
            DecisionRule(1.0, 0.05, "folklore")

    def test_nan_critical_value(self):
        # a NaN boundary would never reject
        with pytest.raises(ValueError, match="critical value must be positive, got nan"):
            DecisionRule(float("nan"), None, "asymptotic")
