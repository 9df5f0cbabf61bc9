"""Participant-local operations (the cleartext steps of Algorithm 1).

The assignment step and the convergence step run locally on cleartext data
(App. C.1): the participant measures distances between its own series and
the differentially-private centroids, picks the closest, and initializes
its means vector.  This module holds those per-device computations so the
protocol orchestrator stays readable; the computation step adds the
participant's noise share and encrypts the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.distance import pairwise_sq_euclidean

__all__ = ["Participant"]


@dataclass
class Participant:
    """One device: its node id and its series."""

    node_id: int
    series: np.ndarray

    def closest_centroid(self, centroids: np.ndarray) -> int:
        """Assignment step: index of the closest cleartext centroid."""
        distances = pairwise_sq_euclidean(self.series[None, :], centroids)[0]
        return int(np.argmin(distances))

    def means_vector(self, centroids: np.ndarray) -> np.ndarray:
        """Alg. 1 l.5-6: assign locally, return the cleartext flattened means
        vector — series + count 1 for the assigned cluster, zeros elsewhere."""
        stride = len(self.series) + 1
        values = np.zeros(len(centroids) * stride)
        start = self.closest_centroid(centroids) * stride
        values[start : start + stride - 1] = self.series
        values[start + stride - 1] = 1.0
        return values
