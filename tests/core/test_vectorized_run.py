"""The full Chiaroscuro loop on the vectorized plane (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ChiaroscuroParams, ChiaroscuroRun
from repro.datasets import TimeSeriesSet
from repro.privacy import Greedy


@pytest.fixture(scope="module")
def small_workload():
    rng = np.random.default_rng(21)
    centers = np.array([[5.0] * 8, [25.0] * 8, [15.0, 30.0] * 4])
    values = np.clip(
        np.concatenate([c + rng.normal(0, 1.0, (400, 8)) for c in centers]),
        0.0,
        40.0,
    )
    data = TimeSeriesSet(values, 0.0, 40.0, name="vec-run")
    init = centers + rng.normal(0, 2.0, centers.shape)
    return data, init


def test_vectorized_plane_runs_full_loop(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(
        k=3, max_iterations=4, exchanges=12,
        tau_fraction=0.01,
    )
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=7, plane="vectorized")
    result, steps = run.run()

    assert result.iterations >= 1
    assert len(steps) == result.iterations
    assert all(step.agreement is not None for step in steps)
    # Every iteration ran the full epidemic pipeline: EESum + dissemination
    # + decryption collection all consume exchanges.
    assert all(step.exchanges_per_node > 2 * params.exchanges for step in steps)
    # With this much signal and a concentrated budget, clusters survive.
    assert result.n_centroids_curve[0] >= 2


def test_vectorized_plane_respects_budget_and_smoothing_flags(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(
        k=3, max_iterations=3, exchanges=10,
        use_smoothing=False, tau_fraction=0.01,
    )
    run = ChiaroscuroRun(data, Greedy(0.5), params, init, seed=9, plane="vectorized")
    result, _ = run.run()
    assert result.smoothing is False
    assert sum(s.epsilon_spent for s in result.history) <= 0.5 + 1e-9


def test_vectorized_plane_is_seed_reproducible(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(
        k=3, max_iterations=2, exchanges=10,
        tau_fraction=0.01,
    )
    results = []
    for _ in range(2):
        run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=11, plane="vectorized")
        result, _ = run.run()
        results.append(result)
    assert results[0].iterations == results[1].iterations
    for a, b in zip(results[0].history, results[1].history):
        assert np.array_equal(a.centroids, b.centroids)


def test_vectorized_plane_skips_key_material(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(k=3)
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=1, plane="vectorized")
    assert run.keypair is None
    assert run.participants == []
    run.close()  # must be a no-op without a backend


def test_invalid_plane_rejected(small_workload):
    data, init = small_workload
    with pytest.raises(ValueError, match="plane must be one of"):
        ChiaroscuroRun(data, Greedy(0.69), ChiaroscuroParams(k=3), init, plane="gpu")


def test_vectorized_plane_under_churn(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(
        k=3, max_iterations=2, exchanges=14,
        tau_fraction=0.01,
    )
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=3, plane="vectorized")
    result, steps = run.run(churn=0.25)
    assert result.iterations >= 1
    # Churned cycles still deliver roughly (1 - churn) exchanges per node
    # per cycle; far more than half the exchange budget must materialize.
    assert steps[0].exchanges_per_node > params.exchanges
