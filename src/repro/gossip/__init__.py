"""Gossip substrate: cycle-driven engine (the Peersim substitution),
cleartext and encrypted epidemic sums, min-id dissemination, epidemic
threshold decryption, and the struct-of-arrays large-population engine.
"""

from .aggregation import EpidemicSum
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
from .vectorized_protocol import VectorizedGossipEngine

__all__ = [
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
    "TokenDecryption",
    "VectorizedEESum",
    "VectorizedGossipEngine",
    "VectorizedMinId",
    "VectorizedShareCollection",
]
