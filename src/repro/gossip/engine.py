"""Cycle-driven gossip simulator (the Peersim substitution).

The engine reproduces Peersim's cycle-driven mode, which is what the paper
used: in each cycle every *online* node initiates one exchange with a peer
drawn from its local view, and a pluggable :class:`Protocol` mutates the two
node states.  Churn is modelled exactly as Sec. 6.1.5 describes — a uniform
per-cycle disconnection probability.

Design notes:

* node states are plain dicts owned by the protocol, keyed by protocol
  name, so several protocols can run "in parallel" over the same exchanges
  (the paper runs the means-EESum and the noise-EESum on the same gossip
  stream);
* the engine counts *exchanges per node* — the unit in which Theorem 3 and
  all the Fig. 4 latency plots are expressed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

__all__ = ["Node", "GossipProtocol", "GossipEngine"]


@dataclass
class Node:
    """One simulated participant."""

    node_id: int
    online: bool = True
    state: dict = field(default_factory=dict)
    exchanges: int = 0


class GossipProtocol(TypingProtocol):
    """Anything that can react to a pairwise gossip exchange."""

    def setup(self, node: Node, rng: random.Random) -> None:
        """Initialize the per-node state before the first cycle."""

    def exchange(self, initiator: Node, contact: Node, rng: random.Random) -> None:
        """Perform one point-to-point exchange (mutates both states)."""


class GossipEngine:
    """Cycle-driven engine over ``n_nodes`` with uniform peer sampling.

    ``view_size`` bounds the per-cycle candidate set the initiator draws its
    contact from (a fresh uniform sample each cycle — the standard
    approximation of a converged Newscast view).
    """

    def __init__(
        self,
        n_nodes: int,
        seed: int = 0,
        view_size: int = 30,
        churn: float = 0.0,
    ) -> None:
        if n_nodes < 2:
            raise ValueError("need at least two nodes to gossip")
        if not 0 <= churn < 1:
            raise ValueError("churn must be in [0, 1)")
        self.rng = random.Random(seed)
        self.view_size = view_size
        self.churn = churn
        self.nodes = [Node(node_id=i) for i in range(n_nodes)]
        self.cycles = 0
        # Observability hook: called after every cycle with
        # (cycle_index, exchanges_in_cycle).  Must not mutate engine state —
        # it exists so streaming frontends (repro.api events) can report
        # epidemic progress without changing the exchange schedule.
        self.on_cycle = None

    def setup(self, *protocols: GossipProtocol) -> None:
        """Run every protocol's per-node initialization."""
        for node in self.nodes:
            for protocol in protocols:
                protocol.setup(node, self.rng)

    def _draw_contact(self, initiator: Node, online_ids: list[int]) -> Node | None:
        candidates = self.rng.sample(online_ids, min(self.view_size, len(online_ids)))
        for candidate in candidates:
            if candidate != initiator.node_id:
                return self.nodes[candidate]
        return None

    def run_cycle(self, *protocols: GossipProtocol) -> int:
        """One cycle: every online node initiates once.  Returns #exchanges."""
        for node in self.nodes:
            node.online = self.rng.random() >= self.churn
        online_ids = [node.node_id for node in self.nodes if node.online]
        exchanges = 0
        if len(online_ids) >= 2:
            order = online_ids[:]
            self.rng.shuffle(order)
            for node_id in order:
                initiator = self.nodes[node_id]
                if not initiator.online:
                    continue
                contact = self._draw_contact(initiator, online_ids)
                if contact is None:
                    continue
                for protocol in protocols:
                    protocol.exchange(initiator, contact, self.rng)
                initiator.exchanges += 1
                contact.exchanges += 1
                exchanges += 1
        self.cycles += 1
        if self.on_cycle is not None:
            self.on_cycle(self.cycles, exchanges)
        return exchanges

    def run_pairing_cycle(
        self,
        pairs: "list[tuple[int, int]] | zip",
        *protocols: GossipProtocol,
    ) -> int:
        """Execute an externally-supplied exchange schedule for one cycle.

        The shadow-execution hook: the vectorized plane draws a pairing
        (``VectorizedGossipEngine.run_cycle`` returns it) and this engine
        replays the identical schedule, so the equivalence tests can assert
        both planes land on the same decoded sums, ω-weights and exchange
        counters.  Pairs are applied in order; node online flags are not
        redrawn (the schedule already encodes who was online).
        """
        exchanges = 0
        for initiator_id, contact_id in pairs:
            initiator, contact = self.nodes[initiator_id], self.nodes[contact_id]
            for protocol in protocols:
                protocol.exchange(initiator, contact, self.rng)
            initiator.exchanges += 1
            contact.exchanges += 1
            exchanges += 1
        return exchanges

    def run_cycles(self, cycles: int, *protocols: GossipProtocol) -> int:
        """Run ``cycles`` full cycles; returns the total exchange count."""
        total = 0
        for _ in range(cycles):
            total += self.run_cycle(*protocols)
        return total

    @property
    def mean_exchanges_per_node(self) -> float:
        """Average number of exchange participations per node so far."""
        return sum(node.exchanges for node in self.nodes) / len(self.nodes)
