"""Centralized Lloyd k-means — the paper's "No perturbation" reference curve.

This is the baseline every Fig. 2 plot compares against, implemented in the
same vocabulary as Sec. 3.1: assignment step, computation step, convergence
step with threshold ``θ`` on the centroid displacement, plus the
``n_it^max`` iteration cap shared with Chiaroscuro.

Empty clusters are *dropped* (not re-seeded): the paper's perturbed
executions lose centroids the same way ("lost means" are ignored de facto,
footnote 8), so keeping the baseline's behaviour aligned makes the
number-of-centroids plots comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import assign_to_closest
from .inertia import intra_inertia

__all__ = ["KMeansTrace", "lloyd_kmeans", "compress_labels", "compute_means"]


@dataclass
class KMeansTrace:
    """Per-iteration history of a (possibly perturbed) k-means run."""

    inertia: list[float] = field(default_factory=list)
    n_centroids: list[int] = field(default_factory=list)
    centroids: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def record(self, inertia: float, centroids: np.ndarray) -> None:
        """Append one iteration's snapshot."""
        self.inertia.append(float(inertia))
        self.n_centroids.append(int(len(centroids)))
        self.centroids.append(np.array(centroids, copy=True))
        self.iterations += 1


def compute_means(
    series: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The computation step: per-cluster sums / counts → (means, counts).

    Clusters with zero members get a ``nan`` mean row; callers decide the
    lost-centroid policy.
    """
    series = np.asarray(series, dtype=float)
    counts = np.bincount(labels, minlength=k).astype(float)
    # One weighted bincount per column adds the rows in order, exactly as
    # ``np.add.at(sums, labels, series)`` does, in a third of its time.
    sums = np.stack([
        np.bincount(labels, weights=series[:, j], minlength=k)
        for j in range(series.shape[1])
    ], axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts[:, None]
    return means, counts


def compress_labels(labels: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Relabel onto the surviving-cluster index space (dead clusters never
    hold members when ``alive`` is the non-empty mask, so the mapping is
    total)."""
    mapping = np.cumsum(alive) - 1
    return mapping[labels]


def lloyd_kmeans(
    series: np.ndarray,
    initial_centroids: np.ndarray,
    max_iterations: int = 10,
    threshold: float = 1e-4,
) -> KMeansTrace:
    """Run plain Lloyd k-means and return the iteration trace.

    ``threshold`` is the paper's θ: the run converges when the mean squared
    displacement between consecutive centroid sets falls below it.
    """
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(initial_centroids, dtype=float).copy()
    trace = KMeansTrace()
    for _ in range(max_iterations):
        labels = assign_to_closest(series, centroids)
        means, counts = compute_means(series, labels, len(centroids))
        alive = counts > 0
        means = means[alive]
        # Relabel against surviving centroids for the inertia bookkeeping.
        labels = assign_to_closest(series, means)
        trace.record(intra_inertia(series, means, labels), means)
        if len(means) == len(centroids):
            displacement = float(np.mean((means - centroids) ** 2))
            if displacement < threshold:
                trace.converged = True
                centroids = means
                break
        centroids = means
    return trace
