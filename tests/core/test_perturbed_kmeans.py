"""The perturbed centralized k-means: ``ChiaroscuroRun(plane="quality")``."""

import numpy as np
import pytest

from _runs import fold
from repro.clustering import lloyd_kmeans
from repro.core import ChiaroscuroParams, ChiaroscuroRun
from repro.datasets import TimeSeriesSet, courbogen_like_centroids, generate_cer
from repro.privacy import Greedy, UniformFast


@pytest.fixture(scope="module")
def cer_small():
    return generate_cer(n_series=4000, population_scale=500, seed=7)


@pytest.fixture(scope="module")
def cer_init():
    return courbogen_like_centroids(15, np.random.default_rng(7))


def perturbed_kmeans(
    dataset, init, strategy, max_iterations, seed, smoothing=True, churn=0.0,
    gossip_e_max=0.0,
):
    """One quality-plane run (θ = 0: the trace spans the whole budget)."""
    params = ChiaroscuroParams(
        k=len(init), max_iterations=max_iterations, theta=0.0,
        use_smoothing=smoothing,
    )
    run = ChiaroscuroRun(
        dataset, strategy, params, init, seed=seed, plane="quality",
        gossip_e_max=gossip_e_max,
    )
    return fold(run, churn)[0]


class TestBasicRun:
    def test_history_recorded(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 5, seed=0)
        assert result.iterations == 5
        for stats in result.history:
            assert stats.pre_inertia > 0
            assert stats.post_inertia > 0
            assert 1 <= stats.n_centroids <= 15
            assert stats.epsilon_spent > 0

    def test_uf_stops_at_bound(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, UniformFast(0.69, 3), 10, seed=1)
        assert result.iterations == 3

    def test_budget_never_exceeded(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 10, seed=2)
        assert sum(s.epsilon_spent for s in result.history) <= 0.69 + 1e-9

    def test_labels_and_smoothing_flags(self, cer_small, cer_init):
        smooth = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 2, seed=3)
        raw = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), 2, seed=3, smoothing=False
        )
        assert smooth.label == "G_SMA"
        assert raw.label == "G"

    def test_zero_noise_limit_matches_lloyd(self, cer_small, cer_init):
        """With an enormous ε the perturbed run tracks plain Lloyd."""
        result = perturbed_kmeans(
            cer_small, cer_init, UniformFast(1e9, 4), 4, seed=4, smoothing=False
        )
        baseline = lloyd_kmeans(cer_small.values, cer_init, max_iterations=4)
        assert result.pre_inertia_curve[-1] == pytest.approx(
            baseline.inertia[-1], rel=0.02
        )


class TestPaperShapes:
    """The qualitative Fig. 2 facts, on the synthetic CER-like workload."""

    def test_noise_eventually_overwhelms_greedy(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 10, seed=5)
        curve = result.pre_inertia_curve
        assert min(curve) < curve[-1]  # quality degrades by the end

    def test_centroids_get_lost(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 10, seed=6)
        counts = result.n_centroids_curve
        assert counts[-1] < counts[0]

    @staticmethod
    def _late_inertia(dataset, init):
        """Mean late (iterations 5–8) PRE inertia, raw and smoothed, 3 seeds."""
        raw_tail, smooth_tail = [], []
        for seed in range(3):
            raw = perturbed_kmeans(
                dataset, init, Greedy(0.69), 8, seed=100 + seed, smoothing=False
            )
            smooth = perturbed_kmeans(dataset, init, Greedy(0.69), 8, seed=100 + seed)
            raw_tail.append(np.mean(raw.pre_inertia_curve[4:]))
            smooth_tail.append(np.mean(smooth.pre_inertia_curve[4:]))
        return np.mean(raw_tail), np.mean(smooth_tail)

    def test_smoothing_helps_late_iterations(self, cer_small, cer_init):
        """SMA averages away noise that is independent per measure.  A
        mean's error also has a part common to its n measures — the count's
        noise times the mean — which smoothing cannot remove; on the CER
        range [0, 80] that part dominates (next test), on [0, 1] the
        per-measure part does, and smoothing helps."""
        unit = TimeSeriesSet(cer_small.values / 80.0, 0.0, 1.0, population_scale=500)
        raw, smooth = self._late_inertia(unit, cer_init / 80.0)
        assert smooth <= raw * 1.05

    @pytest.mark.xfail(strict=True, reason=(
        "joint calibration: the counts' noise, common to a mean's measures, "
        "dominates on [0, 80] — docs/ARCHITECTURE.md \"Calibration\""
    ))
    def test_smoothing_helps_late_iterations_on_cer(self, cer_small, cer_init):
        raw, smooth = self._late_inertia(cer_small, cer_init)
        assert smooth <= raw * 1.05

    def test_best_iteration_selector(self, cer_small, cer_init):
        result = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 6, seed=8)
        best = result.best_iteration()
        assert best.pre_inertia == min(result.pre_inertia_curve)


class TestChurnAndOptions:
    def test_churn_run_completes(self, cer_small, cer_init):
        params = ChiaroscuroParams(k=15, max_iterations=5, theta=0.0)
        run = ChiaroscuroRun(
            cer_small, Greedy(0.69), params, cer_init, seed=9, plane="quality"
        )
        steps = list(run.run_iter(churn=0.5))
        assert len(steps) >= 1
        # about half the series are released each iteration; every plane
        # measures inertia over the whole dataset
        assert all(0.4 < step.active_series / cer_small.t < 0.6 for step in steps)

    def test_gossip_error_model(self, cer_small, cer_init):
        exact = perturbed_kmeans(cer_small, cer_init, Greedy(0.69), 3, seed=10)
        result = perturbed_kmeans(
            cer_small, cer_init, Greedy(0.69), 3, seed=10, gossip_e_max=1e-3
        )
        assert result.iterations == 3
        assert not np.array_equal(result.centroids, exact.centroids)

    def test_population_scale_reduces_noise_impact(self, cer_init):
        """More effective individuals → relatively less DP damage (the
        ``population_scale`` device, docs/ARCHITECTURE.md "Calibration")."""
        damage = {}
        for scale in (1, 1000):
            data = generate_cer(n_series=3000, population_scale=scale, seed=12)
            result = perturbed_kmeans(data, cer_init, UniformFast(0.69, 5), 5, seed=13)
            baseline = lloyd_kmeans(data.values, cer_init, max_iterations=5)
            damage[scale] = result.pre_inertia_curve[-1] - baseline.inertia[-1]
        assert damage[1000] < damage[1]
