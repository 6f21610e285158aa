import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from varbreak import ResidualSeries, SubsampleWindow, WindowBoundsError


class TestResidualSeries:
    def test_holds_values_and_length(self):
        s = ResidualSeries([1.0, -2.0, 3.0])
        assert s.n == 3
        np.testing.assert_array_equal(s.values, [1.0, -2.0, 3.0])

    def test_values_are_read_only(self):
        s = ResidualSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    @pytest.mark.parametrize("bad", [[1.0], [], [1.0, np.nan], [1.0, np.inf], [[1.0, 2.0]]])
    def test_rejects_invalid_input(self, bad):
        with pytest.raises(ValueError):
            ResidualSeries(bad)


class TestSubsampleWindow:
    def test_center_formula_is_exact(self):
        w = SubsampleWindow(n=100, offset=30, length=40)
        assert w.center == (2 * 30 / 100 + 40 / 100) / 2

    def test_full_window(self):
        w = SubsampleWindow.full(7)
        assert (w.offset, w.length, w.center) == (0, 7, 0.5)
        # the pipeline's default window, gamma = 1, is the full window
        for n in (2, 7, 660, 2000):
            assert SubsampleWindow.from_exponent(n, 1.0) == SubsampleWindow.full(n)

    def test_from_exponent_floors(self):
        w = SubsampleWindow.from_exponent(200, 2.0 / 3.0, start_fraction=0.25)
        assert w.length == math.floor(200 ** (2.0 / 3.0)) == 34
        assert w.offset == 50
        # a window is its bounds, however it was built
        assert w == SubsampleWindow(n=200, offset=50, length=34)
        assert SubsampleWindow.from_exponent(661, 0.9) == SubsampleWindow(661, 0, 345)

    def test_out_of_bounds_window(self):
        with pytest.raises(WindowBoundsError):
            SubsampleWindow(n=10, offset=5, length=6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, offset=0, length=1),
            dict(n=10, offset=-1, length=5),
            dict(n=1, offset=0, length=1),
            dict(n=10, gamma=1.5),
            dict(n=10, gamma=0.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        make = SubsampleWindow.from_exponent if "gamma" in kwargs else SubsampleWindow
        with pytest.raises(ValueError):
            make(**kwargs)

    def test_slice_values_rejects_mismatched_series(self):
        w = SubsampleWindow.full(5)
        with pytest.raises(WindowBoundsError):
            w.slice_values(ResidualSeries([1.0, 2.0, 3.0]))

    def test_times_are_one_based(self):
        w = SubsampleWindow(n=8, offset=2, length=4)
        np.testing.assert_array_equal(w.times(), [3, 4, 5, 6])

    @given(st.data())
    def test_center_always_interior(self, data):
        n = data.draw(st.integers(min_value=2, max_value=500))
        length = data.draw(st.integers(min_value=2, max_value=n))
        offset = data.draw(st.integers(min_value=0, max_value=n - length))
        w = SubsampleWindow(n=n, offset=offset, length=length)
        assert 0.0 < w.center < 1.0
        assert w.stop <= n
