"""The full Chiaroscuro loop on the vectorized plane (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from _runs import fold
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
    # Seed 10 since the sparse share sampler redrew the noise stream: at
    # ε_1 = 0.345 a 400-series cluster survives with p ≈ 0.7, and seed 7's
    # new draws keep one cluster of three.
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=10, plane="vectorized")
    result, steps = fold(run)

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
    result, _ = fold(run)
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
        result, _ = fold(run)
        results.append(result)
    assert results[0].iterations == results[1].iterations
    for a, b in zip(results[0].history, results[1].history):
        assert np.array_equal(a.centroids, b.centroids)


def test_vectorized_plane_skips_key_material(small_workload):
    data, init = small_workload
    params = ChiaroscuroParams(k=3)
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=1, plane="vectorized")
    assert run.keypair is None
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
    # Seed 5 since the sparse share sampler redrew the noise stream: seed 3's
    # new draws lose every cluster in iteration 1.
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=5, plane="vectorized")
    result, steps = fold(run, churn=0.25)
    assert result.iterations >= 1
    # Churned cycles still deliver roughly (1 - churn) exchanges per node
    # per cycle; far more than half the exchange budget must materialize.
    assert steps[0].exchanges_per_node > params.exchanges


def test_post_inertia_reassigns_only_the_series_of_lost_clusters(
    small_workload, monkeypatch
):
    """POST needs the t × k re-assignment only when a cluster was lost.

    Seed 0 keeps all three clusters in iteration 1 and loses one in each of
    iterations 2 and 3, so the loop assigns once (the assignment step), then
    twice, then twice.  The quality plane's noise is ``rng.laplace``, which
    the share sampler does not touch: the POST values are pinned as the
    loop computed them when it evaluated the re-assignment every iteration.
    """
    from repro.core import protocol

    data, init = small_workload
    calls = []
    assign = protocol.assign_to_closest
    monkeypatch.setattr(
        protocol, "assign_to_closest",
        lambda *args, **kwargs: calls.append(1) or assign(*args, **kwargs),
    )
    params = ChiaroscuroParams(k=3, max_iterations=3, tau_fraction=0.01)
    run = ChiaroscuroRun(data, Greedy(0.69), params, init, seed=0, plane="quality")
    history, per_iteration = [], []
    for record in run.run_iter():
        history.append(record.stats)
        per_iteration.append(len(calls))
        calls.clear()
    assert [s.n_centroids for s in history] == [3, 2, 1]
    assert per_iteration == [1, 2, 2]
    assert [s.post_inertia for s in history] == [
        938.2268838531394, 1601.7622870928806, 1037.4354755577967,
    ]


def _pre_inertia_before_pr24(series, labels, k):
    """``ChiaroscuroRun._pre_inertia`` as it stood before the loop took the
    true means from ``compute_means``: the reference for bit-equality."""
    from repro.clustering import intra_inertia

    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, series.shape[1]))
    np.add.at(sums, labels, series)
    alive = counts > 0
    means = sums[alive] / counts[alive, None]
    mapping = np.cumsum(alive) - 1
    return float(intra_inertia(series, means, mapping[labels]))


@pytest.mark.parametrize("stray_centroid", [False, True])
def test_pre_inertia_is_bit_equal_to_the_old_true_means(stray_centroid):
    """The ``vectorized_mock`` perf spec at its toy size — and once more with
    an eleventh centroid nobody is close to, so a cluster starts empty and
    the lost-cluster remapping is on the path."""
    import json
    import pathlib

    from repro.api import Experiment, RunSpec
    from repro.clustering import assign_to_closest

    root = pathlib.Path(__file__).resolve().parents[2]
    spec = json.loads((root / "perf/specs/vectorized_mock.json").read_text())
    spec["strategy"] = "UF2"
    spec["dataset"]["params"].update(points_per_cluster=10, duplications=2)
    spec["params"].update(max_iterations=2, exchanges=6)
    if stray_centroid:
        spec["init"]["params"]["values"].append([5000.0, 5000.0])
        spec["params"]["k"] = 11
    experiment = Experiment.from_spec(RunSpec.from_dict(spec))
    values = experiment.context.dataset.values
    centroids = experiment.context.initial_centroids
    history = experiment.run().history
    assert len(history) == 2
    for stats in history:
        labels = assign_to_closest(values, centroids)
        assert (0 in np.bincount(labels, minlength=len(centroids))) == (
            stray_centroid and stats.iteration == 1
        )
        assert stats.pre_inertia == _pre_inertia_before_pr24(
            values, labels, len(centroids)
        )
        centroids = stats.centroids
