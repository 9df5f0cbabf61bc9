"""Gossip substrate: cycle-driven engine (the Peersim substitution),
cleartext and encrypted epidemic sums, min-id dissemination, epidemic
threshold decryption, and the struct-of-arrays large-population engine.
"""

from .. import lazy

__all__, __getattr__ = lazy.exports(__name__, {
    ".aggregation": ("EpidemicSum",),
    ".decryption": (
        "DecryptionState",
        "EpidemicDecryption",
        "TokenDecryption",
        "VectorizedShareCollection",
    ),
    ".dissemination": ("MinIdDissemination", "VectorizedMinId"),
    ".eesum": (
        "EESum",
        "EESumState",
        "HomomorphicOps",
        "MockHomomorphicOps",
        "VectorizedEESum",
    ),
    ".engine": ("GossipEngine", "Node"),
    ".vectorized_protocol": ("VectorizedGossipEngine",),
})
