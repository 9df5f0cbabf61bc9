"""Tests for centroid initialization strategies."""

import numpy as np
import pytest

from repro.clustering import kmeanspp_init, sample_init, uniform_init


class TestSampleInit:
    def test_picks_from_data(self):
        rng = np.random.default_rng(0)
        series = np.arange(20.0).reshape(10, 2)
        init = sample_init(series, 4, rng)
        assert init.shape == (4, 2)
        for row in init:
            assert any(np.allclose(row, s) for s in series)

    def test_distinct_rows(self):
        rng = np.random.default_rng(1)
        series = np.arange(40.0).reshape(20, 2)
        init = sample_init(series, 20, rng)
        assert len(np.unique(init, axis=0)) == 20

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sample_init(np.zeros((3, 2)), 4, np.random.default_rng(0))

    def test_copy_not_view(self):
        rng = np.random.default_rng(2)
        series = np.ones((5, 2))
        init = sample_init(series, 2, rng)
        init[0, 0] = 99.0
        assert series[0, 0] == 1.0


class TestUniformInit:
    def test_range(self):
        init = uniform_init(50, 6, -2.0, 3.0, np.random.default_rng(3))
        assert init.shape == (50, 6)
        assert init.min() >= -2.0 and init.max() <= 3.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            uniform_init(3, 4, 1.0, 1.0, np.random.default_rng(0))




class TestKMeansPP:
    def test_spreads_centroids(self):
        """k-means++ on two far blobs picks one centroid in each."""
        rng = np.random.default_rng(5)
        blob_a = rng.normal(0, 0.1, (50, 2))
        blob_b = rng.normal(100, 0.1, (50, 2))
        series = np.concatenate([blob_a, blob_b])
        init = kmeanspp_init(series, 2, np.random.default_rng(6))
        assert abs(init[0, 0] - init[1, 0]) > 50

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeanspp_init(np.zeros((2, 2)), 3, np.random.default_rng(0))
