"""Inertia metrics (Definition 1).

* intra-cluster inertia ``q_intra = (1/t)·Σ_i Σ_{s∈ζ[i]} ||C[i] − s||²`` —
  the k-means objective the paper plots in Figs. 2–3;
* inter-cluster inertia ``q_inter = Σ_i (|ζ[i]|/t)·||C[i] − g||²`` with
  ``g`` the global centroid;
* full inertia ``q = q_intra + q_inter`` — constant for a dataset when the
  centroids are the true cluster means (Huygens decomposition), plotted as
  the "Dataset inertia" upper bound.
"""

from __future__ import annotations

import numpy as np

__all__ = ["intra_inertia", "inter_inertia", "dataset_inertia"]


def _validate(series: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> None:
    if len(labels) != len(series):
        raise ValueError("labels must have one entry per series")
    if labels.size and (labels.min() < 0 or labels.max() >= len(centroids)):
        raise ValueError("labels reference unknown centroids")


def intra_inertia(
    series: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> float:
    """Weighted (1/t) sum of squared distances to the assigned centroid."""
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = np.asarray(labels)
    _validate(series, centroids, labels)
    diff = series - centroids[labels]
    return float(np.einsum("ij,ij->", diff, diff) / len(series))


def inter_inertia(
    series: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> float:
    """Cardinality-weighted squared distances of centroids to the global mean."""
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = np.asarray(labels)
    _validate(series, centroids, labels)
    g = series.mean(axis=0)
    counts = np.bincount(labels, minlength=len(centroids)).astype(float)
    diff = centroids - g
    sq = np.einsum("ij,ij->i", diff, diff)
    return float((counts / len(series)) @ sq)


def dataset_inertia(series: np.ndarray) -> float:
    """Full inertia ``(1/t)·Σ ||s − g||²`` — the constant upper bound."""
    series = np.asarray(series, dtype=float)
    diff = series - series.mean(axis=0)
    return float(np.einsum("ij,ij->", diff, diff) / len(series))
