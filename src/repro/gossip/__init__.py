"""Gossip substrate: cycle-driven engine (the Peersim substitution),
cleartext and encrypted epidemic sums, min-id dissemination, epidemic
threshold decryption, churn models, and the vectorized large-population
plane.
"""

from .aggregation import EpidemicSum
from .churn import ChurnModel
from .decryption import (
    DecryptionState,
    EpidemicDecryption,
    TokenDecryption,
    VectorizedShareCollection,
)
from .dissemination import MinIdDissemination, VectorizedMinId
from .eesum import (
    EESum,
    EESumState,
    HomomorphicOps,
    MockHomomorphicOps,
    VectorizedEESum,
)
from .engine import GossipEngine, Node
from .vectorized import (
    PushPullSumSimulator,
    SumErrorTrace,
    dissemination_cycles,
    messages_to_reach_error,
    random_pairing,
    simulate_sum_error,
)
from .vectorized_protocol import VectorizedGossipEngine

__all__ = [
    "ChurnModel",
    "DecryptionState",
    "EESum",
    "EESumState",
    "EpidemicDecryption",
    "EpidemicSum",
    "GossipEngine",
    "HomomorphicOps",
    "MinIdDissemination",
    "MockHomomorphicOps",
    "Node",
    "PushPullSumSimulator",
    "SumErrorTrace",
    "TokenDecryption",
    "VectorizedEESum",
    "VectorizedGossipEngine",
    "VectorizedMinId",
    "VectorizedShareCollection",
    "dissemination_cycles",
    "messages_to_reach_error",
    "random_pairing",
    "simulate_sum_error",
]
