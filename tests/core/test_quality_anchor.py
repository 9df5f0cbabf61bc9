"""The quality plane is ``ChiaroscuroRun``'s loop with the central step, and
the only things that changed when it stopped being a loop of its own are
the named ones.

``_reference_loop`` is the quality plane's own Algorithm 1 loop as it stood
before, pasted with its ``sensitivity_mode="joint"`` branch (the calibration
the protocol planes draw at).  At an ε where no cluster is ever empty or
lost, survival agrees, so:

* at churn 0 every ``IterationStats`` field, ``converged``, ``active_series``
  and the RNG state are ``==`` — the release, the smoothing, the POST
  definition (without re-assignment) and the θ test are the reference's;
* under churn only the inertia population moved (the reference measured
  the subsample, every plane now measures the whole dataset): centroids,
  ``n_centroids``, ``active_series`` and the RNG state stay ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import assign_to_closest, compute_means, intra_inertia
from repro.clustering.kmeans import compress_labels
from repro.core import ChiaroscuroParams, ChiaroscuroRun, sma_smooth
from repro.datasets import generate_cer
from repro.privacy import PrivacyAccountant, UniformFast
from repro.privacy.laplace import sum_sensitivity
from repro.privacy.probabilistic import lemma2_noise_inflation, lemma2_scale


def _reference_loop(
    dataset, initial_centroids, strategy, max_iterations, theta, window,
    gossip_e_max, churn, rng,
):
    """Yield ``(stats, converged, active_series, rng_state)`` per iteration."""
    series_all = dataset.values
    scale_factor = float(dataset.population_scale)
    do_smooth = 0 < window < dataset.n
    accountant = PrivacyAccountant(epsilon_budget=strategy.epsilon)
    inflation = lemma2_noise_inflation(gossip_e_max) if gossip_e_max > 0 else 1.0

    def gossip_error(values):
        if gossip_e_max <= 0:
            return values
        return values * (1.0 + rng.uniform(-gossip_e_max, gossip_e_max, size=values.shape))

    centroids = np.asarray(initial_centroids, dtype=float).copy()
    for iteration, epsilon_i in accountant.charged_schedule(strategy, max_iterations, 1):
        if churn > 0:
            keep = rng.random(len(series_all)) >= churn
            if not keep.any():
                keep[rng.integers(len(series_all))] = True
            series = series_all[keep]
        else:
            series = series_all

        labels = assign_to_closest(series, centroids)
        k = len(centroids)
        means, counts = compute_means(series, labels, k)
        sums = np.nan_to_num(means, nan=0.0) * counts[:, None]
        sums *= scale_factor
        counts = counts * scale_factor

        alive_true = counts > 0
        pre_inertia = intra_inertia(
            series, means[alive_true], compress_labels(labels, alive_true)
        )

        sens = sum_sensitivity(dataset.n, dataset.dmin, dataset.dmax) + 1.0
        if gossip_e_max > 0:
            scale = lemma2_scale(sens, epsilon_i, gossip_e_max)
        else:
            scale = sens / epsilon_i
        noisy_sums = gossip_error(sums) + (
            inflation * rng.laplace(0.0, scale, size=sums.shape)
        )
        noisy_counts = gossip_error(counts) + (
            inflation * rng.laplace(0.0, scale, size=counts.shape)
        )

        survive = alive_true & (noisy_counts > 0)
        if not survive.any():
            return
        with np.errstate(invalid="ignore", divide="ignore"):
            perturbed = noisy_sums[survive] / noisy_counts[survive, None]
        if do_smooth:
            perturbed = sma_smooth(perturbed, window)

        post_labels = assign_to_closest(series, perturbed)
        mapping = np.cumsum(survive) - 1
        restricted = np.where(survive[labels], mapping[labels], post_labels)
        post_inertia = intra_inertia(series, perturbed, restricted)

        converged = False
        if theta > 0 and perturbed.shape == centroids.shape:
            converged = float(np.mean((perturbed - centroids) ** 2)) < theta
        yield (
            dict(
                iteration=iteration,
                pre_inertia=float(pre_inertia),
                post_inertia=float(post_inertia),
                n_centroids=int(survive.sum()),
                epsilon_spent=epsilon_i,
                centroids=perturbed,
            ),
            converged,
            len(series),
            rng.bit_generator.state,
        )
        if converged:
            return
        centroids = perturbed


@pytest.fixture(scope="module")
def workload():
    data = generate_cer(n_series=600, population_scale=50, seed=4)
    init = data.values[np.random.default_rng(4).choice(data.t, 5, replace=False)]
    return data, init


def _both(workload, *, smoothing, gossip_e_max, churn, theta=0.0, seed=3):
    data, init = workload
    params = ChiaroscuroParams(
        k=len(init), max_iterations=5, theta=theta, use_smoothing=smoothing
    )
    strategy = UniformFast(2000.0, 4)
    run = ChiaroscuroRun(
        data, strategy, params, init, seed=seed, plane="quality",
        gossip_e_max=gossip_e_max,
    )
    head = list(run.run_iter(churn=churn))
    reference = list(_reference_loop(
        data, init, strategy, params.max_iterations, theta,
        params.smoothing_plan(data.n)[0], gossip_e_max, churn,
        np.random.default_rng(seed + 1),
    ))
    assert len(head) == len(reference) >= 1
    for record, (stats, *_rest) in zip(head, reference):
        # the precondition: no cluster empty or lost, so survival agrees
        labels = assign_to_closest(data.values, record.centroids)
        assert stats["n_centroids"] == record.n_centroids == len(init)
        assert np.bincount(labels, minlength=len(init)).min() > 0
    return head, reference


@pytest.mark.parametrize("smoothing", [True, False])
@pytest.mark.parametrize("gossip_e_max", [0.0, 1e-3])
def test_churn_free_run_equals_the_reference(workload, smoothing, gossip_e_max):
    head, reference = _both(
        workload, smoothing=smoothing, gossip_e_max=gossip_e_max, churn=0.0
    )
    for record, (stats, converged, active, rng_state) in zip(head, reference):
        assert record.stats.iteration == stats["iteration"]
        assert record.stats.pre_inertia == stats["pre_inertia"]
        assert record.stats.post_inertia == stats["post_inertia"]
        assert record.stats.n_centroids == stats["n_centroids"]
        assert record.stats.epsilon_spent == stats["epsilon_spent"]
        assert np.array_equal(record.stats.centroids, stats["centroids"])
        assert record.converged == converged
        assert record.active_series == active
        assert record.rng_state == rng_state


def test_the_theta_test_is_the_reference(workload):
    """θ sits between iteration 4's displacement (≈ 0.052) and iteration
    3's (≈ 0.099): a test off by a factor of two stops one iteration early."""
    head, reference = _both(
        workload, smoothing=True, gossip_e_max=0.0, churn=0.0, theta=0.07
    )
    assert [r.converged for r in head] == [False, False, False, True]
    assert [r.converged for r in head] == [conv for _, conv, *_ in reference]


@pytest.mark.parametrize("smoothing", [True, False])
@pytest.mark.parametrize("gossip_e_max", [0.0, 1e-3])
def test_churned_run_releases_what_the_reference_released(
    workload, smoothing, gossip_e_max
):
    head, reference = _both(
        workload, smoothing=smoothing, gossip_e_max=gossip_e_max, churn=0.3
    )
    for record, (stats, _converged, active, rng_state) in zip(head, reference):
        assert np.array_equal(record.stats.centroids, stats["centroids"])
        assert record.stats.n_centroids == stats["n_centroids"]
        assert record.active_series == active < workload[0].t
        assert record.rng_state == rng_state
