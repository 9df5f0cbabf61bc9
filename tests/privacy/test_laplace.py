"""Tests for the Laplace scale and the Def. 4 sensitivities."""

import pytest

from repro.privacy import joint_sensitivity, laplace_scale, sum_sensitivity


class TestSensitivity:
    def test_cer_values(self):
        """The paper's CER setting: 24 hourly measures in [0, 80] → 1920."""
        assert sum_sensitivity(24, 0.0, 80.0) == 1920.0

    def test_numed_values(self):
        """The paper's NUMED setting: 20 weekly measures in [0, 50] → 1000."""
        assert sum_sensitivity(20, 0.0, 50.0) == 1000.0

    def test_negative_range_uses_abs_max(self):
        assert sum_sensitivity(10, -30.0, 20.0) == 300.0

    def test_joint_adds_count(self):
        assert joint_sensitivity(24, 0.0, 80.0) == 1921.0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            sum_sensitivity(0, 0.0, 1.0)


class TestScale:
    def test_scale(self):
        assert laplace_scale(1920.0, 0.69) == pytest.approx(2782.6, rel=1e-3)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            laplace_scale(1.0, 0.0)

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            laplace_scale(-1.0, 1.0)

