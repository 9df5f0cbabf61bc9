"""Tests for the Lloyd k-means baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import compute_means, lloyd_kmeans, sample_init


def three_blob_data(seed=0, per=40):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return (
        np.concatenate([c + rng.normal(0, 0.5, (per, 2)) for c in centers]),
        centers,
    )


class TestComputeMeans:
    def test_means_and_counts(self):
        series = np.array([[1.0, 1.0], [3.0, 3.0], [10.0, 10.0]])
        labels = np.array([0, 0, 1])
        means, counts = compute_means(series, labels, 3)
        assert np.allclose(means[0], [2.0, 2.0])
        assert np.allclose(means[1], [10.0, 10.0])
        assert np.isnan(means[2]).all()  # empty cluster
        assert counts.tolist() == [2.0, 1.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 300), st.integers(1, 12), st.integers(1, 9)),
        magnitude=st.floats(-3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_are_bit_equal_to_add_at(self, shape, magnitude, seed):
        """The per-column bincount adds each cluster's rows in the order
        ``np.add.at`` does: the means — and every inertia measured from
        them — are bit for bit the unbuffered scatter-add's."""
        t, n, k = shape
        rng = np.random.default_rng(seed)
        series = rng.normal(size=(t, n)) * 10.0**magnitude
        labels = rng.integers(0, k, size=t)
        sums = np.zeros((k, n))
        np.add.at(sums, labels, series)
        counts = np.bincount(labels, minlength=k).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = sums / counts[:, None]
        means, got_counts = compute_means(series, labels, k)
        assert np.array_equal(means, expected, equal_nan=True)
        assert np.array_equal(got_counts, counts)


class TestLloyd:
    def test_recovers_blobs(self):
        series, centers = three_blob_data()
        init = centers + 1.5
        trace = lloyd_kmeans(series, init, max_iterations=10)
        final = trace.centroids[-1]
        for center in centers:
            assert np.min(np.linalg.norm(final - center, axis=1)) < 0.5

    def test_inertia_monotone_nonincreasing(self):
        series, _ = three_blob_data(seed=1)
        rng = np.random.default_rng(2)
        init = sample_init(series, 5, rng)
        trace = lloyd_kmeans(series, init, max_iterations=15)
        for a, b in zip(trace.inertia, trace.inertia[1:]):
            assert b <= a + 1e-9

    def test_convergence_flag(self):
        series, centers = three_blob_data(seed=3)
        trace = lloyd_kmeans(series, centers, max_iterations=20, threshold=1e-6)
        assert trace.converged
        assert trace.iterations < 20

    def test_iteration_cap(self):
        series, centers = three_blob_data(seed=4)
        trace = lloyd_kmeans(series, centers + 5.0, max_iterations=2, threshold=0.0)
        assert trace.iterations == 2
        assert not trace.converged

    def test_empty_clusters_dropped(self):
        series, _ = three_blob_data(seed=5)
        # One centroid far away from all data never gets members.
        init = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [500.0, 500.0]])
        trace = lloyd_kmeans(series, init, max_iterations=3)
        assert trace.n_centroids[-1] == 3

    def test_trace_records_history(self):
        series, centers = three_blob_data(seed=6)
        trace = lloyd_kmeans(series, centers, max_iterations=4, threshold=0.0)
        assert len(trace.inertia) == len(trace.n_centroids) == len(trace.centroids)
