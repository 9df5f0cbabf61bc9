"""Tests for the circular SMA smoothing (Sec. 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import sma_smooth


class TestSMA:
    def test_constant_series_unchanged(self):
        means = np.full((3, 12), 7.0)
        assert np.allclose(sma_smooth(means, 4), 7.0)

    def test_window_zero_identity(self):
        means = np.arange(12.0).reshape(2, 6)
        out = sma_smooth(means, 0)
        assert np.array_equal(out, means)
        out[0, 0] = 99  # must be a copy
        assert means[0, 0] == 0.0

    def test_hand_computed_circular(self):
        series = np.array([10.0, 0.0, 0.0, 0.0])
        # window 2 → average of j−1, j, j+1 (mod 4)
        out = sma_smooth(series, 2)
        assert np.allclose(out, [10 / 3, 10 / 3, 0.0, 10 / 3])

    def test_reduces_iid_noise_variance(self):
        rng = np.random.default_rng(0)
        noise = rng.laplace(0, 1.0, size=(50, 24))
        smoothed = sma_smooth(noise, 4)
        assert smoothed.var() < noise.var() / 2.5  # ~1/(w+1) reduction

    def test_preserves_mean(self):
        """Circular averaging conserves the series total."""
        rng = np.random.default_rng(1)
        means = rng.normal(size=(4, 10))
        smoothed = sma_smooth(means, 4)
        assert np.allclose(smoothed.sum(axis=1), means.sum(axis=1))

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError):
            sma_smooth(np.zeros((2, 8)), 3)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            sma_smooth(np.zeros((2, 4)), 4)

    def test_1d_and_2d_agree(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=10)
        assert np.allclose(sma_smooth(row, 2), sma_smooth(row[None, :], 2)[0])

    @settings(max_examples=30, deadline=None)
    @given(
        means=hnp.arrays(np.float64, (2, 12), elements=st.floats(-100, 100, allow_nan=False)),
        shift=st.integers(min_value=0, max_value=11),
    )
    def test_circular_shift_equivariance(self, means, shift):
        """Smoothing commutes with circular shifts — the defining property
        of the modulo-n indexing the paper specifies."""
        direct = np.roll(sma_smooth(means, 4), shift, axis=1)
        shifted = sma_smooth(np.roll(means, shift, axis=1), 4)
        assert np.allclose(direct, shifted, atol=1e-9)


class TestDeriveWindow:
    """Regression: one shared SMA-window derivation for every plane.

    The quality plane once re-implemented the Table 2 window inline with a
    different guard (``n > window`` vs the protocol's ``0 < window < n``);
    every plane now routes through :func:`repro.core.derive_sma_window`
    and the one gate, ``ChiaroscuroParams.smoothing_plan``.  These tests
    pin the derivation — and the quality plane's behavior at short series
    lengths — to the historical values.
    """

    def test_matches_historical_inline_derivation(self):
        from repro.core import derive_sma_window

        for n in range(1, 101):
            w = int(round(0.2 * n))
            expected = w if w % 2 == 0 else w - 1  # the old inline code
            assert derive_sma_window(n) == expected, n

    def test_params_method_delegates(self):
        from repro.core import ChiaroscuroParams, derive_sma_window

        params = ChiaroscuroParams(smoothing_fraction=0.3)
        for n in (1, 5, 6, 24, 47):
            assert params.smoothing_window(n) == derive_sma_window(n, 0.3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 24])
    def test_quality_plane_short_series_behavior_pinned(self, n):
        """At short lengths the derived window collapses to 0 (< 8) or 2;
        the run must apply smoothing exactly when 0 < w < n — identical to
        the old ``dataset.n > smoothing_window`` guard."""
        from _runs import fold
        from repro.core import ChiaroscuroParams, ChiaroscuroRun, derive_sma_window
        from repro.datasets import TimeSeriesSet
        from repro.privacy import UniformFast

        rng = np.random.default_rng(n)
        values = np.clip(rng.normal(10.0, 2.0, size=(40, n)), 0.0, 20.0)
        dataset = TimeSeriesSet(values, 0.0, 20.0)
        init = np.clip(rng.normal(10.0, 2.0, size=(2, n)), 0.0, 20.0)

        def run(use_smoothing):
            params = ChiaroscuroParams(
                k=2, max_iterations=1, use_smoothing=use_smoothing
            )
            return fold(ChiaroscuroRun(
                dataset, UniformFast(100.0, 1), params, init, plane="quality"
            ))[0]

        result = run(True)
        window = derive_sma_window(n)
        assert result.smoothing is (0 < window < n)

        # Bit-for-bit: smoothing on vs off must split exactly at w = 0,
        # i.e. the smoothed run equals an explicitly-unsmoothed run iff
        # the derived window is inapplicable.
        unsmoothed = run(False)
        same = np.array_equal(result.centroids, unsmoothed.centroids)
        assert same is not (0 < window < n)
