"""Epidemic threshold decryption (Sec. 4.2.3).

Each participant holds (a) its converged encrypted vector and (b) one
private key-share with a random key-share identifier.  During an exchange:

1. **replacement** — the less-advanced side (fewer distinct key-shares
   applied) discards its partially-decrypted state and adopts the more
   advanced side's, the latency optimization the paper describes;
2. **mutual partial decryption** — each side applies its own key-share to
   the other's vector if that identifier is not present yet.

A node stops once ``τ`` distinct key-shares have been applied; it then
combines the partial decryptions locally (Shoup combination, see
:mod:`repro.crypto.threshold`).

Three planes share this module:

* :class:`EpidemicDecryption` — the real-crypto protocol used by the full
  Chiaroscuro execution;
* :class:`TokenDecryption` — a crypto-free twin that moves only key-share
  *identifiers*, used for the Fig. 4(b) latency sweeps where only message
  counts matter;
* :class:`VectorizedShareCollection` — the struct-of-arrays twin driven by
  :class:`repro.gossip.vectorized_protocol.VectorizedGossipEngine` for the
  10⁵–10⁶-node sweeps and the vectorized Chiaroscuro run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import lazy

if TYPE_CHECKING:
    from ..crypto.backend import CryptoBackend
    from ..crypto.keys import KeyShare, ThresholdContext
    from .engine import Node

__all__ = [
    "DecryptionState",
    "EpidemicDecryption",
    "TokenDecryption",
    "VectorizedShareCollection",
]

# The real-ciphertext planes' names (repro.lazy): the mock loop imports none.
SerialBackend = lazy.defer(__name__, "..crypto.backend", "SerialBackend")
combine_partial_decryptions = lazy.defer(
    __name__, "..crypto.threshold", "combine_partial_decryptions"
)

_STATE = "eedec"


@dataclass
class DecryptionState:
    """A node's decryption bundle: vector, weight, exchange counter (the
    vector's EESum coefficient total is ``2^count``), per-element partials."""

    ciphertexts: list[int]
    omega: int
    count: int
    partials: dict[int, list[int]] = field(default_factory=dict)  # share idx → vec

    @property
    def n_shares_applied(self) -> int:
        return len(self.partials)


class EpidemicDecryption:
    """Real threshold decryption over the gossip stream.

    ``bundles`` maps node id → (ciphertext vector, scaled weight ω,
    exchange counter); these are the converged EESum outputs (estimates are
    equal across nodes up to the gossip approximation error, so the
    replacement step is sound — the clear ω and counter are adopted with
    the vector they describe).
    ``shares`` maps node id → its :class:`KeyShare`.

    Applying a key-share partially decrypts the node's *whole* vector — one
    ``c^{2Δd_i}`` exponentiation per element — so it runs as a single batch
    through ``backend`` (serial by default; a process-pool backend spreads
    the batch over workers, see :mod:`repro.crypto.backend`).
    """

    def __init__(
        self,
        context: ThresholdContext,
        bundles: dict[int, tuple[list[int], int, int]],
        shares: dict[int, KeyShare],
        backend: CryptoBackend | None = None,
    ) -> None:
        self.context = context
        self.bundles = bundles
        self.shares = shares
        self.backend = backend or SerialBackend()

    def setup(self, node: Node) -> None:
        ciphertexts, omega, count = self.bundles[node.node_id]
        state = DecryptionState(list(ciphertexts), omega, count)
        self._apply_share(state, self.shares[node.node_id])
        node.state[_STATE] = state

    def state_of(self, node: Node) -> DecryptionState:
        return node.state[_STATE]

    def _apply_share(self, state: DecryptionState, share: KeyShare) -> None:
        if share.index in state.partials:
            return
        if state.n_shares_applied >= self.context.threshold:
            return
        state.partials[share.index] = self.backend.partial_decrypt_batch(
            self.context, share, state.ciphertexts
        )

    def exchange(self, initiator: Node, contact: Node) -> None:
        a, b = self.state_of(initiator), self.state_of(contact)
        # Replacement: the laggard adopts the leader's bundle wholesale.
        if a.n_shares_applied != b.n_shares_applied:
            lag, lead = (a, b) if a.n_shares_applied < b.n_shares_applied else (b, a)
            lag.ciphertexts = list(lead.ciphertexts)
            lag.omega = lead.omega
            lag.count = lead.count
            lag.partials = {idx: list(vec) for idx, vec in lead.partials.items()}
        self._apply_share(a, self.shares[contact.node_id])
        self._apply_share(b, self.shares[initiator.node_id])

    def is_done(self, node: Node) -> bool:
        """Stopping criterion: τ distinct key-shares applied."""
        return self.state_of(node).n_shares_applied >= self.context.threshold

    def all_done(self, nodes: list[Node]) -> bool:
        return all(self.is_done(node) for node in nodes)

    def plaintexts_of(self, node: Node) -> tuple[list[int], int, int]:
        """Combine the node's partials into plaintext residues (plus ω and
        the exchange counter of the vector they belong to)."""
        state = self.state_of(node)
        if state.n_shares_applied < self.context.threshold:
            raise RuntimeError("node has not collected enough key-shares yet")
        plaintexts = []
        for element in range(len(state.ciphertexts)):
            partials = {idx: vec[element] for idx, vec in state.partials.items()}
            plaintexts.append(combine_partial_decryptions(self.context, partials))
        return plaintexts, state.omega, state.count


class TokenDecryption:
    """Crypto-free twin for latency sweeps: moves identifier sets only.

    Each node's key-share identifier is its node id; states are plain sets.
    Message accounting is inherited from the engine (exchanges per node).
    """

    def __init__(self, threshold_count: int) -> None:
        if threshold_count < 1:
            raise ValueError("threshold_count must be >= 1")
        self.threshold_count = threshold_count

    def setup(self, node: Node) -> None:
        node.state[_STATE] = {node.node_id}

    def exchange(self, initiator: Node, contact: Node) -> None:
        a: set[int] = initiator.state[_STATE]
        b: set[int] = contact.state[_STATE]
        if len(a) != len(b):
            lag, lead = (a, b) if len(a) < len(b) else (b, a)
            lag.clear()
            lag.update(lead)
            # ``a``/``b`` aliases still point at the same set objects.
        if len(a) < self.threshold_count:
            a.add(contact.node_id)
        if len(b) < self.threshold_count:
            b.add(initiator.node_id)

    def is_done(self, node: Node) -> bool:
        return len(node.state[_STATE]) >= self.threshold_count

    def fraction_done(self, nodes: list[Node]) -> float:
        done = sum(1 for node in nodes if self.is_done(node))
        return done / len(nodes)


class VectorizedShareCollection:
    """Epidemic decryption collection as array operations (third plane).

    The per-node state is the number of distinct key-shares applied to the
    node's bundle.  An exchange replays :class:`TokenDecryption`'s rule in
    bulk: the laggard adopts the leader's bundle (replacement), then each
    side applies the other's own key-share if it still needs shares.

    One deliberate large-population approximation: shares are counted by
    cardinality only, assuming the contact's key-share is not already among
    the adopted set.  A duplicate occurs with probability ``≈ count/population``
    per exchange — negligible at the 10⁵–10⁶ populations this plane exists
    for (and the Fig. 4(b) latency is what is being measured, not the share
    identities).  The object-engine :class:`TokenDecryption` remains the
    exact-semantics reference.
    """

    def __init__(self, population: int, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if population < 2:
            raise ValueError("population must be >= 2")
        self.threshold = threshold
        # Every node starts having applied its own key-share (as in
        # EpidemicDecryption.setup).
        self.shares = np.ones(population, dtype=np.int64)

    def exchange_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        lead = np.maximum(self.shares[left], self.shares[right])
        advanced = np.minimum(lead + 1, self.threshold)
        # Nodes already at/above threshold stop collecting (the Sec. 4.2.3
        # stopping criterion) — they keep their count.
        merged = np.where(lead >= self.threshold, lead, advanced)
        self.shares[left] = merged
        self.shares[right] = merged

    def fraction_done(self) -> float:
        return float((self.shares >= self.threshold).mean())

    def all_done(self) -> bool:
        return bool((self.shares >= self.threshold).all())
