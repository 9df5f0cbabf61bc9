"""Initial-centroid strategies (the ``C_init`` of Table 1).

The paper seeds NUMED runs with uniform random picks *from* the dataset and
CER runs with synthetic profiles from EDF's CourboGen generator (raw series
cannot be used as centroids for privacy reasons).  We mirror both — the
CER style is the dataset's own generator,
``repro.datasets.cer.courbogen_like_centroids``:

* :func:`sample_init`   — random distinct series (NUMED style);
* :func:`uniform_init`  — uniform random vectors in the value range;
* :func:`kmeanspp_init` — k-means++ (not in the paper; provided as the
  standard strong baseline for ablations).
"""

from __future__ import annotations

import numpy as np

from .distance import pairwise_sq_euclidean

__all__ = ["sample_init", "uniform_init", "kmeanspp_init"]


def sample_init(series: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick ``k`` distinct series uniformly at random as initial centroids."""
    series = np.asarray(series, dtype=float)
    if k > len(series):
        raise ValueError("k cannot exceed the number of series")
    indices = rng.choice(len(series), size=k, replace=False)
    return series[indices].copy()


def uniform_init(
    k: int,
    length: int,
    dmin: float,
    dmax: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``k`` centroids uniformly in ``[dmin, dmax]^length``."""
    if dmax <= dmin:
        raise ValueError("need dmin < dmax")
    return rng.uniform(dmin, dmax, size=(k, length))


def kmeanspp_init(series: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (D² weighting); ablation baseline, not in the paper."""
    series = np.asarray(series, dtype=float)
    if k > len(series):
        raise ValueError("k cannot exceed the number of series")
    first = rng.integers(len(series))
    centroids = [series[first]]
    d2 = pairwise_sq_euclidean(series, np.array([series[first]]))[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(len(series))
        else:
            idx = rng.choice(len(series), p=d2 / total)
        centroids.append(series[idx])
        d2 = np.minimum(d2, pairwise_sq_euclidean(series, np.array([series[idx]]))[:, 0])
    return np.array(centroids)
