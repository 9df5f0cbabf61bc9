"""Tests for the Definition 1 inertia metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import (
    assign_to_closest,
    compute_means,
    dataset_inertia,
    inter_inertia,
    intra_inertia,
)


def _true_means_setup(seed=0, t=60, n=4, k=3):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(t, n)) + rng.integers(0, k, t)[:, None] * 10.0
    centroids = rng.normal(size=(k, n))
    labels = assign_to_closest(series, centroids)
    means, _ = compute_means(series, labels, k)
    return series, np.nan_to_num(means), labels


class TestIntra:
    def test_zero_for_perfect_fit(self):
        series = np.array([[1.0, 2.0], [1.0, 2.0]])
        centroids = np.array([[1.0, 2.0]])
        labels = np.array([0, 0])
        assert intra_inertia(series, centroids, labels) == 0.0

    def test_hand_computed(self):
        series = np.array([[0.0], [2.0], [10.0]])
        centroids = np.array([[1.0], [10.0]])
        labels = np.array([0, 0, 1])
        # ((0-1)² + (2-1)² + 0) / 3
        assert intra_inertia(series, centroids, labels) == pytest.approx(2 / 3)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            intra_inertia(np.zeros((2, 2)), np.zeros((1, 2)), np.array([0, 5]))


class TestHuygensDecomposition:
    """q_intra + q_inter == q_dataset when centroids are the true means."""

    def test_decomposition(self):
        series, means, labels = _true_means_setup()
        total = intra_inertia(series, means, labels) + inter_inertia(
            series, means, labels
        )
        assert total == pytest.approx(dataset_inertia(series))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_decomposition_property(self, seed):
        series, means, labels = _true_means_setup(seed=seed)
        total = intra_inertia(series, means, labels) + inter_inertia(
            series, means, labels
        )
        assert total == pytest.approx(dataset_inertia(series), rel=1e-9)

    def test_decomposition_fails_for_wrong_centroids(self):
        """With non-mean centroids, intra is *larger* (bias-variance)."""
        series, means, labels = _true_means_setup(seed=3)
        shifted = means + 1.0
        assert intra_inertia(series, shifted, labels) > intra_inertia(
            series, means, labels
        )


class TestReport:
    def test_dataset_inertia_constant(self):
        series, _, _ = _true_means_setup(seed=5)
        assert dataset_inertia(series) == pytest.approx(
            dataset_inertia(series[::-1].copy())
        )
