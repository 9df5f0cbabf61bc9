"""Tests for the perturbed centralized k-means quality plane."""

import numpy as np
import pytest

from repro.clustering import lloyd_kmeans
from repro.core import PerturbationOptions, perturbed_kmeans
from repro.datasets import TimeSeriesSet, generate_cer, courbogen_like_centroids
from repro.privacy import Greedy, UniformFast


@pytest.fixture(scope="module")
def cer_small():
    return generate_cer(n_series=4000, population_scale=500, seed=7)


@pytest.fixture(scope="module")
def cer_init():
    return courbogen_like_centroids(15, np.random.default_rng(7))


class TestBasicRun:
    def test_history_recorded(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=5,
            rng=np.random.default_rng(0),
        )
        assert result.iterations == 5
        for stats in result.history:
            assert stats.pre_inertia > 0
            assert stats.post_inertia > 0
            assert 1 <= stats.n_centroids <= 15
            assert stats.epsilon_spent > 0

    def test_uf_stops_at_bound(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, UniformFast(0.69, 3), max_iterations=10,
            rng=np.random.default_rng(1),
        )
        assert result.iterations == 3

    def test_budget_never_exceeded(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=10,
            rng=np.random.default_rng(2),
        )
        assert sum(s.epsilon_spent for s in result.history) <= 0.69 + 1e-9

    def test_labels_and_smoothing_flags(self, cer_small, cer_init):
        smooth = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=2,
            rng=np.random.default_rng(3),
        )
        raw = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=2,
            smoothing_window=0,
            rng=np.random.default_rng(3),
        )
        assert smooth.label == "G_SMA"
        assert raw.label == "G"

    def test_zero_noise_limit_matches_lloyd(self, cer_small, cer_init):
        """With an enormous ε the perturbed run tracks plain Lloyd."""
        result = perturbed_kmeans(
            cer_small, cer_init, UniformFast(1e9, 4), max_iterations=4,
            smoothing_window=0,
            rng=np.random.default_rng(4),
        )
        baseline = lloyd_kmeans(cer_small.values, cer_init, max_iterations=4)
        assert result.pre_inertia_curve[-1] == pytest.approx(
            baseline.inertia[-1], rel=0.02
        )


class TestPaperShapes:
    """The qualitative Fig. 2 facts, on the synthetic CER-like workload."""

    def test_noise_eventually_overwhelms_greedy(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=10,
            rng=np.random.default_rng(5),
        )
        curve = result.pre_inertia_curve
        assert min(curve) < curve[-1]  # quality degrades by the end

    def test_centroids_get_lost(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=10,
            rng=np.random.default_rng(6),
        )
        counts = result.n_centroids_curve
        assert counts[-1] < counts[0]

    def test_smoothing_helps_late_iterations(self, cer_small, cer_init):
        seeds = range(3)
        raw_tail, smooth_tail = [], []
        for seed in seeds:
            raw = perturbed_kmeans(
                cer_small, cer_init, Greedy(0.69), max_iterations=8,
                smoothing_window=0,
                rng=np.random.default_rng(100 + seed),
            )
            smooth = perturbed_kmeans(
                cer_small, cer_init, Greedy(0.69), max_iterations=8,
                rng=np.random.default_rng(100 + seed),
            )
            raw_tail.append(np.mean(raw.pre_inertia_curve[4:]))
            smooth_tail.append(np.mean(smooth.pre_inertia_curve[4:]))
        assert np.mean(smooth_tail) <= np.mean(raw_tail) * 1.05

    def test_best_iteration_selector(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=6,
            rng=np.random.default_rng(8),
        )
        best = result.best_iteration()
        assert best.pre_inertia == min(result.pre_inertia_curve)


class TestChurnAndOptions:
    def test_churn_run_completes(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=5,
            churn=0.5, rng=np.random.default_rng(9),
        )
        assert result.iterations >= 1

    def test_gossip_error_model(self, cer_small, cer_init):
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), max_iterations=3,
            options=PerturbationOptions(gossip_e_max=1e-3),
            rng=np.random.default_rng(10),
        )
        assert result.iterations == 3

    def test_sensitivity_modes(self, cer_small, cer_init):
        for mode in ("per-aggregate", "joint", "split"):
            result = perturbed_kmeans(
                cer_small, cer_init, UniformFast(0.69, 2), max_iterations=2,
                options=PerturbationOptions(sensitivity_mode=mode),
                rng=np.random.default_rng(11),
            )
            assert result.iterations >= 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PerturbationOptions(sensitivity_mode="bogus")

    def test_population_scale_reduces_noise_impact(self, cer_init):
        """More effective individuals → relatively less DP damage (the
        scaling argument of DESIGN.md)."""
        damage = {}
        for scale in (1, 1000):
            data = generate_cer(n_series=3000, population_scale=scale, seed=12)
            result = perturbed_kmeans(
                data, cer_init, UniformFast(0.69, 5), max_iterations=5,
                rng=np.random.default_rng(13),
            )
            baseline = lloyd_kmeans(data.values, cer_init, max_iterations=5)
            damage[scale] = result.pre_inertia_curve[-1] - baseline.inertia[-1]
        assert damage[1000] < damage[1]
