"""Tests for the DTW extension."""

import numpy as np
import pytest

from repro.clustering import (
    dtw_assign,
    dtw_assign_reference,
    dtw_distance,
    dtw_pairwise,
    dtw_path,
    lb_keogh,
)
from repro.clustering.dtw import _cost_matrix, _cost_matrix_reference


class TestDTWDistance:
    def test_identical_series(self):
        s = np.array([1.0, 2.0, 3.0, 2.0])
        assert dtw_distance(s, s) == 0.0

    def test_shifted_series_cheaper_than_euclidean(self):
        """DTW absorbs a time shift that Euclidean distance punishes."""
        a = np.array([0, 0, 1, 5, 1, 0, 0, 0], dtype=float)
        b = np.array([0, 0, 0, 1, 5, 1, 0, 0], dtype=float)
        euclid = float(np.linalg.norm(a - b))
        assert dtw_distance(a, b) < euclid

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=12)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_window_constrains(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=15), rng.normal(size=15)
        unconstrained = dtw_distance(a, b)
        banded = dtw_distance(a, b, window=1)
        assert banded >= unconstrained - 1e-12

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((2, 2)), np.zeros(4))


class TestDTWPath:
    def test_path_endpoints_and_monotone(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=8), rng.normal(size=6)
        path = dtw_path(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (7, 5)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert 0 <= i2 - i1 <= 1 and 0 <= j2 - j1 <= 1

    def test_path_cost_matches_distance(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=7), rng.normal(size=7)
        path = dtw_path(a, b)
        cost = sum((a[i] - b[j]) ** 2 for i, j in path)
        assert np.sqrt(cost) == pytest.approx(dtw_distance(a, b))


class TestDTWClustering:
    def test_assignment(self):
        flat = np.zeros(10)
        peak = np.concatenate([np.zeros(4), [5.0, 5.0], np.zeros(4)])
        series = np.array([flat + 0.1, peak * 1.1, flat - 0.1, np.roll(peak, 1)])
        centroids = np.array([flat, peak])
        labels = dtw_assign(series, centroids)
        assert labels.tolist() == [0, 1, 0, 1]


class TestWavefrontEquivalence:
    """The vectorized anti-diagonal DP must match the per-cell loop exactly."""

    @pytest.mark.parametrize(
        "n,m,window",
        [(8, 8, None), (13, 9, None), (9, 13, 3), (16, 16, 2), (5, 5, 0), (24, 24, 5)],
    )
    def test_cost_matrix_matches_reference(self, n, m, window):
        rng = np.random.default_rng(n * 100 + m)
        a, b = rng.normal(size=n), rng.normal(size=m)
        vectorized = _cost_matrix(a, b, window)
        reference = _cost_matrix_reference(a, b, window)
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize("window", [None, 3])
    def test_pairwise_matches_per_pair_distances(self, window):
        rng = np.random.default_rng(7)
        series = rng.normal(size=(25, 12))
        centroids = rng.normal(size=(4, 12))
        batched = dtw_pairwise(series, centroids, window)
        for i, s in enumerate(series):
            for j, c in enumerate(centroids):
                assert batched[i, j] == pytest.approx(dtw_distance(s, c, window))

    def test_pairwise_unequal_lengths(self):
        rng = np.random.default_rng(8)
        series = rng.normal(size=(10, 14))
        centroids = rng.normal(size=(3, 9))
        batched = dtw_pairwise(series, centroids)
        for i, s in enumerate(series):
            for j, c in enumerate(centroids):
                assert batched[i, j] == pytest.approx(dtw_distance(s, c))

    @pytest.mark.parametrize("window", [None, 2])
    def test_assign_matches_reference(self, window):
        rng = np.random.default_rng(9)
        series = rng.normal(size=(30, 10))
        centroids = rng.normal(size=(5, 10))
        assert np.array_equal(
            dtw_assign(series, centroids, window),
            dtw_assign_reference(series, centroids, window),
        )

    def test_pairwise_chunking_invariant(self):
        rng = np.random.default_rng(10)
        series = rng.normal(size=(33, 8))
        centroids = rng.normal(size=(3, 8))
        assert np.array_equal(
            dtw_pairwise(series, centroids, chunk_size=7),
            dtw_pairwise(series, centroids, chunk_size=2048),
        )


class TestLBKeoghPruning:
    @pytest.mark.parametrize("window", [None, 0, 1, 3])
    def test_lb_is_a_lower_bound(self, window):
        rng = np.random.default_rng(11)
        series = rng.normal(size=(25, 12))
        centroids = rng.normal(size=(4, 12))
        bounds = lb_keogh(series, centroids, window)
        exact = dtw_pairwise(series, centroids, window)
        assert (bounds <= exact + 1e-9).all()

    @pytest.mark.parametrize("window", [None, 2])
    def test_pruned_assign_exact_vs_reference(self, window):
        """The acceptance test: pruning never changes an assignment."""
        rng = np.random.default_rng(12)
        # Clustered data (pruning actually fires) plus uniform noise rows
        # (near-ties stress the tie-breaking).
        centers = rng.normal(scale=4.0, size=(6, 9))
        series = np.concatenate(
            [
                centers[rng.integers(0, 6, size=40)] + rng.normal(size=(40, 9)),
                rng.uniform(-1, 1, size=(10, 9)),
            ]
        )
        centroids = centers + rng.normal(scale=0.1, size=centers.shape)
        expected = dtw_assign_reference(series, centroids, window)
        assert np.array_equal(dtw_assign(series, centroids, window), expected)
        assert np.array_equal(
            dtw_assign(series, centroids, window, prune=False), expected
        )

    def test_near_tie_ulp_noise_not_mispruned(self):
        """Regression: a centroid perturbed by 1e-13 produces DTW distances
        equal up to ulps, and the *computed* LB can land above the computed
        distance — the slack in the pruning gate must keep the lower-index
        candidate evaluated."""
        rng = np.random.default_rng(1)
        for trial in range(302):
            series = rng.normal(size=(20, 12))
            c0 = rng.normal(size=12)
            centroids = np.stack([c0 + 1e-13 * rng.normal(size=12), c0])
            if trial < 40:  # broad sweep over windows on the early trials
                for window in (0, 1, None):
                    assert np.array_equal(
                        dtw_assign(series, centroids, window),
                        dtw_assign_reference(series, centroids, window),
                    )
        # Trial 301 of this stream is a found counterexample for a slackless
        # gate (computed LB lands ulps above the computed distance): row 6
        # was assigned centroid 1 instead of the tie-broken 0.
        assert np.array_equal(
            dtw_assign(series, centroids, 0),
            dtw_assign_reference(series, centroids, 0),
        )

    def test_duplicate_centroids_tie_break_to_lowest_index(self):
        rng = np.random.default_rng(13)
        series = rng.normal(size=(12, 7))
        one = rng.normal(size=7)
        centroids = np.stack([one + 5.0, one, one])  # indices 1 and 2 tie
        assert np.array_equal(
            dtw_assign(series, centroids),
            dtw_assign_reference(series, centroids),
        )

    def test_unequal_lengths_fall_back_unpruned(self):
        rng = np.random.default_rng(14)
        series = rng.normal(size=(9, 10))
        centroids = rng.normal(size=(3, 8))
        assert np.array_equal(
            dtw_assign(series, centroids),
            dtw_assign_reference(series, centroids),
        )
        with pytest.raises(ValueError):
            lb_keogh(series, centroids)
