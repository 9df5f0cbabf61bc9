"""Participant-local operations (the cleartext steps of Algorithm 1).

The assignment step and the convergence step run locally on cleartext data
(App. C.1): the participant measures distances between its own series and
the differentially-private centroids, picks the closest, and initializes
its encrypted means.  This module holds those per-device computations so
the protocol orchestrator stays readable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..clustering.distance import pairwise_sq_euclidean
from ..crypto.backend import CryptoBackend, SerialBackend
from ..crypto.encoding import PackedCodec

__all__ = ["Participant"]


@dataclass
class Participant:
    """One device: its series, its node id, and its crypto handles.

    The flattened ``k·(n+1)`` means vector is packed by ``packed`` (which
    carries the public key) and encrypted as one batch through ``backend``.
    """

    node_id: int
    series: np.ndarray
    packed: PackedCodec
    backend: CryptoBackend = field(default_factory=SerialBackend)

    def closest_centroid(self, centroids: np.ndarray) -> int:
        """Assignment step: index of the closest cleartext centroid."""
        distances = pairwise_sq_euclidean(self.series[None, :], centroids)[0]
        return int(np.argmin(distances))

    def means_value_vector(self, assigned: int, k: int) -> np.ndarray:
        """The cleartext flattened means vector: series + count 1 for the
        assigned cluster, zeros elsewhere (Alg. 1 l.6 semantics)."""
        stride = len(self.series) + 1
        values = np.zeros(k * stride)
        start = assigned * stride
        values[start : start + stride - 1] = self.series
        values[start + stride - 1] = 1.0
        return values

    def encrypted_means_vector(
        self, centroids: np.ndarray, rng: random.Random
    ) -> list[int]:
        """Alg. 1 l.5-6: assign locally, return the flattened encrypted means."""
        assigned = self.closest_centroid(centroids)
        values = self.means_value_vector(assigned, len(centroids))
        return self.backend.encrypt_batch(
            self.packed.public, self.packed.pack(values), rng
        )
