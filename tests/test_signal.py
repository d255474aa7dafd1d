import math

import numpy as np
import pytest

from qdrabi import dominant_angular_frequency


class TestDominantFrequency:
    def test_pure_sinusoid(self):
        t = np.linspace(0, 25, 2501)
        x = 0.3 * np.sin(1.7 * t + 0.4) + 2.0
        assert dominant_angular_frequency(t, x) == pytest.approx(1.7, rel=1e-6)

    def test_cos_squared_measures_doubled_frequency(self):
        t = np.linspace(0, 25, 2501)
        x = np.cos(0.9 * t) ** 2
        assert dominant_angular_frequency(t, x) == pytest.approx(1.8, rel=1e-6)

    def test_window_with_fractional_periods(self):
        # the mean offset must not bias the fit (same-parity crossings)
        t = np.linspace(0, 21.3, 2130)
        x = np.cos(1.0 * t) ** 2
        assert dominant_angular_frequency(t, x) == pytest.approx(2.0, rel=1e-5)

    def test_constant_signal_has_no_frequency(self):
        t = np.linspace(0, 10, 100)
        assert math.isnan(dominant_angular_frequency(t, np.ones_like(t)))

    def test_single_crossing_has_no_frequency(self):
        t = np.linspace(0, 10, 100)
        assert math.isnan(dominant_angular_frequency(t, t - 5.0))

