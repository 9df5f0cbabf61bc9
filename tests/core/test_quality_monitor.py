"""Tests for the footnote-9 quality-driven termination criterion."""

import numpy as np
import pytest

from repro.clustering import assign_to_closest, compute_means, inter_inertia
from repro.core import ChiaroscuroParams, ChiaroscuroRun, QualityMonitor
from repro.datasets import courbogen_like_centroids, generate_cer
from repro.privacy import Greedy


class TestInterInertiaFromReleases:
    def test_matches_definition1(self):
        """The monitor's public-quantity formula equals Def. 1 inter inertia."""
        rng = np.random.default_rng(0)
        series = rng.normal(size=(100, 4)) + rng.integers(0, 3, 100)[:, None] * 8.0
        centroids = rng.normal(size=(3, 4))
        labels = assign_to_closest(series, centroids)
        means, counts = compute_means(series, labels, 3)
        monitor = QualityMonitor(
            global_centroid=series.mean(axis=0), total_count=float(len(series))
        )
        assert monitor.inter_inertia(np.nan_to_num(means), counts) == pytest.approx(
            inter_inertia(series, np.nan_to_num(means), labels)
        )

    def test_negative_counts_clipped(self):
        monitor = QualityMonitor(global_centroid=np.zeros(2), total_count=10.0)
        value = monitor.inter_inertia(np.ones((2, 2)), np.array([5.0, -3.0]))
        assert value == pytest.approx(5.0 / 10.0 * 2.0)


class TestStoppingRule:
    def _monitor(self, patience=1):
        return QualityMonitor(
            global_centroid=np.zeros(2), total_count=100.0, patience=patience
        )

    def test_never_stops_while_improving(self):
        monitor = self._monitor()
        for spread in (1.0, 2.0, 3.0, 4.0):
            means = np.array([[spread, 0.0], [-spread, 0.0]])
            assert not monitor.observe(means, np.array([50.0, 50.0]))

    def test_stops_on_first_drop(self):
        monitor = self._monitor()
        good = np.array([[3.0, 0.0], [-3.0, 0.0]])
        bad = np.array([[0.5, 0.0], [-0.5, 0.0]])
        assert not monitor.observe(good, np.array([50.0, 50.0]))
        assert monitor.observe(bad, np.array([50.0, 50.0]))

    def test_patience_two(self):
        monitor = self._monitor(patience=2)
        good = np.array([[3.0, 0.0], [-3.0, 0.0]])
        bad = np.array([[0.5, 0.0], [-0.5, 0.0]])
        monitor.observe(good, np.array([50.0, 50.0]))
        assert not monitor.observe(bad, np.array([50.0, 50.0]))
        assert monitor.observe(bad, np.array([50.0, 50.0]))

    def test_recovery_resets_patience(self):
        monitor = self._monitor(patience=2)
        levels = [3.0, 1.0, 4.0, 1.0]  # drop, recover above best, drop
        stops = [
            monitor.observe(
                np.array([[lvl, 0.0], [-lvl, 0.0]]), np.array([50.0, 50.0])
            )
            for lvl in levels
        ]
        assert stops == [False, False, False, False]

    def test_best_iteration(self):
        monitor = self._monitor()
        for lvl in (1.0, 5.0, 2.0):
            monitor.observe(np.array([[lvl, 0.0], [-lvl, 0.0]]), np.array([50.0, 50.0]))
        assert monitor.best_iteration == 2

    def test_best_iteration_empty(self):
        with pytest.raises(ValueError):
            _ = self._monitor().best_iteration

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityMonitor(global_centroid=np.zeros(2), total_count=0.0)
        with pytest.raises(ValueError):
            QualityMonitor(global_centroid=np.zeros(2), total_count=1.0, patience=0)


class TestOnPerturbedRun:
    def test_monitor_flags_the_noise_collapse(self):
        """Fed a GREEDY run's releases, the monitor stops near where the
        pre-perturbation inertia curve turns — the footnote-9 behaviour."""
        data = generate_cer(n_series=5000, population_scale=100, seed=21)
        init = courbogen_like_centroids(15, np.random.default_rng(21))
        params = ChiaroscuroParams(k=15, max_iterations=10, theta=0.0)
        result, _ = ChiaroscuroRun(
            data, Greedy(0.69), params, init, seed=21, plane="quality"
        ).run()
        monitor = QualityMonitor(
            global_centroid=data.values.mean(axis=0),
            total_count=float(data.t) * data.population_scale,
            patience=2,
        )
        stop_at = None
        for stats in result.history:
            counts = np.full(stats.n_centroids, data.population / stats.n_centroids)
            if monitor.observe(stats.centroids, counts) and stop_at is None:
                stop_at = stats.iteration
        curve = result.pre_inertia_curve
        collapse = int(np.argmin(curve)) + 1
        assert stop_at is not None
        assert stop_at >= collapse - 1  # does not stop before quality peaks
