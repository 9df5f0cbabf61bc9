"""App. B as a measured claim: the central step releases what the protocol
releases.

At one fixed assignment, ``CentralComputationStep`` (the quality plane) and
``VectorizedComputationStep`` (the gossip protocol, mock crypto) each run
over N independent seeds, from disjoint seed ranges.  Per released
coordinate — every cluster's sum vector and count, at the canonical node —
a two-sample Kolmogorov–Smirnov test must not tell the two samples apart
at α = 10⁻³, Bonferroni-corrected over the coordinates.  The same statistic
must tell them apart when the central counts are drawn at the ``1/ε_i``
scale (sensitivity 1) instead of the joint one: that is its power.

The KS p-value is the asymptotic Kolmogorov series (numpy only).
"""

from __future__ import annotations

import numpy as np
import pytest

from _stats import ks_pvalue
from repro.core import NoisePlan
from repro.core.computation import CentralComputationStep, VectorizedComputationStep
from repro.gossip import VectorizedGossipEngine

POPULATION = 64
K = 2
LENGTH = 4
DMAX = 10.0
EPSILON = 2.0
SEEDS = 200
ALPHA = 1e-3


@pytest.fixture(scope="module")
def assignment():
    rng = np.random.default_rng(2015)
    series = rng.uniform(0.0, DMAX, size=(POPULATION, LENGTH))
    labels = np.arange(POPULATION) % K
    return labels, series


def _plan() -> NoisePlan:
    return NoisePlan(
        k=K, series_length=LENGTH, dmin=0.0, dmax=DMAX, epsilon=EPSILON,
        n_nu=POPULATION,
    )


def _released(output) -> np.ndarray:
    """The canonical node's release, flattened: k sum vectors, then k counts."""
    canonical = min(output.sums)
    return np.concatenate([output.sums[canonical].ravel(), output.counts[canonical]])


@pytest.fixture(scope="module")
def releases(assignment):
    labels, series = assignment
    central = np.array([
        _released(CentralComputationStep(
            _plan(), np.random.default_rng(seed), churn=0.0, population_scale=1,
            gossip_e_max=0.0,
        ).run(None, labels, series))
        for seed in range(SEEDS)
    ])
    gossiped = np.array([
        _released(VectorizedComputationStep(
            _plan(), exchanges=20, threshold=1,
            noise_rng=np.random.default_rng(10_000 + seed),
        ).run(VectorizedGossipEngine(POPULATION, seed=20_000 + seed), labels, series))
        for seed in range(SEEDS)
    ])
    return central, gossiped


def test_central_and_gossiped_releases_share_their_laws(releases):
    central, gossiped = releases
    coordinates = central.shape[1]
    assert coordinates == K * (LENGTH + 1)
    pvalues = [ks_pvalue(central[:, c], gossiped[:, c]) for c in range(coordinates)]
    assert min(pvalues) > ALPHA / coordinates, pvalues


def test_the_statistic_rejects_counts_at_the_old_scale(assignment, releases):
    """Counts drawn at ``1/ε_i`` — sensitivity 1, not the joint
    ``n·max|d| + 1`` — are told apart on every count coordinate."""
    labels, _series = assignment
    _central, gossiped = releases
    true_counts = np.bincount(labels, minlength=K).astype(float)
    rng = np.random.default_rng(30_000)
    narrow = true_counts + rng.laplace(0.0, 1.0 / EPSILON, size=(SEEDS, K))
    counts = gossiped[:, K * LENGTH:]
    for c in range(K):
        assert ks_pvalue(narrow[:, c], counts[:, c]) < ALPHA / (K * (LENGTH + 1))
