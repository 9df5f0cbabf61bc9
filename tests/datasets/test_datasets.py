"""Tests for the dataset generators and the TimeSeriesSet container."""

import numpy as np
import pytest

from repro.datasets import (
    TimeSeriesSet,
    courbogen_like_centroids,
    generate_a3_like,
    generate_cer,
    generate_numed,
    generate_points2d,
)


class TestTimeSeriesSet:
    def test_shape_metadata(self, toy_dataset):
        assert toy_dataset.t == 24
        assert toy_dataset.n == 6
        assert toy_dataset.population == 24

    def test_sensitivities(self, toy_dataset):
        assert toy_dataset.sum_sensitivity == 6 * 60

    def test_population_scale(self):
        ds = TimeSeriesSet(np.zeros((10, 4)), 0.0, 1.0, population_scale=100)
        assert ds.population == 1000

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="outside the declared range"):
            TimeSeriesSet(np.full((2, 2), 5.0), 0.0, 1.0)

    def test_must_be_matrix(self):
        with pytest.raises(ValueError):
            TimeSeriesSet(np.zeros(5), 0.0, 1.0)


class TestCER:
    def test_paper_shape(self):
        data = generate_cer(n_series=500, seed=0)
        assert data.n == 24
        assert data.dmin == 0.0 and data.dmax == 80.0
        assert data.sum_sensitivity == 1920.0  # the paper's number

    def test_default_effective_population(self):
        data = generate_cer(n_series=300, population_scale=100, seed=0)
        assert data.population == 30_000

    def test_concentrated_mixture(self):
        """CER-like data is strongly concentrated: a few archetypes dominate."""
        data = generate_cer(n_series=3000, seed=1)
        # Correlation of each series with the most popular archetype shape
        # splits the data into a dominant group.
        flat = data.values - data.values.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(flat, axis=1)
        lead = flat[0] / norms[0]
        corr = flat @ lead / np.maximum(norms, 1e-9)
        assert (corr > 0.8).mean() > 0.15  # a sizable aligned cohort exists

    def test_deterministic_seed(self):
        a = generate_cer(n_series=100, seed=42)
        b = generate_cer(n_series=100, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_courbogen_centroids(self):
        centroids = courbogen_like_centroids(50, np.random.default_rng(2))
        assert centroids.shape == (50, 24)
        assert centroids.min() >= 0.0 and centroids.max() <= 80.0

    def test_courbogen_not_copies_of_data(self):
        data = generate_cer(n_series=200, seed=3)
        centroids = courbogen_like_centroids(10, np.random.default_rng(3))
        for c in centroids:
            assert not any(np.allclose(c, s) for s in data.values)


class TestNUMED:
    def test_paper_shape(self):
        data = generate_numed(n_series=500, seed=0)
        assert data.n == 20
        assert data.dmin == 0.0 and data.dmax == 50.0
        assert data.sum_sensitivity == 1000.0  # the paper's number

    def test_default_effective_population(self):
        data = generate_numed(n_series=240, population_scale=50, seed=0)
        assert data.population == 12_000

    def test_near_uniform_archetypes(self):
        """NUMED clusters are equally distributed (the paper's explanation
        for SMA having little effect)."""
        data = generate_numed(n_series=4000, seed=1)
        # Split by gross shape: responders end lower than they start.
        start, end = data.values[:, 0], data.values[:, -1]
        shrinking = (end < start * 0.7).mean()
        assert 0.2 < shrinking < 0.8  # no archetype dominates

    def test_values_in_range(self):
        data = generate_numed(n_series=1000, seed=2)
        assert data.values.min() >= 0.0 and data.values.max() <= 50.0


class TestPoints2D:
    def test_a3_base(self):
        points, centers = generate_a3_like(n_clusters=50, points_per_cluster=150, seed=0)
        assert points.shape == (7500, 2)
        assert centers.shape == (50, 2)

    def test_duplication_construction(self):
        data = generate_points2d(
            n_clusters=10, points_per_cluster=30, duplications=5, seed=1
        )
        assert data.t == 10 * 30 * 5
        assert data.n == 2

    def test_clusters_preserved_by_jitter(self):
        """Duplicated points stay near their source (jitter is small)."""
        base, _ = generate_a3_like(n_clusters=10, points_per_cluster=30, seed=2)
        data = generate_points2d(
            n_clusters=10, points_per_cluster=30, duplications=5, jitter=4.0, seed=2
        )
        copies = data.values.reshape(len(base), 5, 2)
        drift = np.abs(copies - base[:, None, :]).max()
        assert drift <= 4.0 + 1e-9
