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
  all the Fig. 4 latency plots are expressed;
* a cycle is drawn whole (:meth:`GossipEngine.draw_pairing`), then
  delivered (:meth:`GossipEngine.run_pairing_cycle`) — the vectorized
  engine's cycle shape, so the fault plane judges either plane's schedule
  the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

import numpy as np

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

    def draw_pairing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Redraw the online flags, then the cycle's exchange schedule.

        Every online node, in a shuffled order, initiates once with the
        first other node of a view drawn uniformly from the online ones.
        Returns ``(initiators, contacts, idle)`` as int arrays in delivery
        order; ``idle`` is empty (no online node sits a cycle out here).
        All of the cycle's engine randomness is drawn here, none during
        delivery.
        """
        rng = self.rng
        for node in self.nodes:
            node.online = rng.random() >= self.churn
        online_ids = [node.node_id for node in self.nodes if node.online]
        schedule = []
        if len(online_ids) >= 2:
            order = online_ids[:]
            rng.shuffle(order)
            view_size = min(self.view_size, len(online_ids))
            for initiator in order:
                view = rng.sample(online_ids, view_size)
                contact = next((c for c in view if c != initiator), None)
                if contact is not None:
                    schedule.append((initiator, contact))
        left, right = np.array(schedule, dtype=np.int64).reshape(-1, 2).T.copy()
        return left, right, np.empty(0, dtype=np.int64)

    def run_pairing_cycle(
        self, left: np.ndarray, right: np.ndarray, *protocols: GossipProtocol
    ) -> int:
        """Deliver a schedule: pair ``i`` is ``left[i]`` initiating with
        ``right[i]``, in order.  Returns #exchanges.

        The engine's one delivery loop: :meth:`run_cycle` hands it the
        schedule it drew, and a shadow test hands it a pairing the
        vectorized plane drew, so both planes land on the same decoded
        sums, ω-weights and exchange counters.  Online flags are not
        redrawn (the schedule already encodes who was online).
        """
        nodes, rng = self.nodes, self.rng
        for initiator_id, contact_id in zip(left.tolist(), right.tolist()):
            initiator, contact = nodes[initiator_id], nodes[contact_id]
            for protocol in protocols:
                protocol.exchange(initiator, contact, rng)
            initiator.exchanges += 1
            contact.exchanges += 1
        return len(left)

    def run_cycle(self, *protocols: GossipProtocol) -> int:
        """One cycle: every online node initiates once.  Returns #exchanges."""
        left, right, _idle = self.draw_pairing()
        exchanges = self.run_pairing_cycle(left, right, *protocols)
        self.cycles += 1
        if self.on_cycle is not None:
            self.on_cycle(self.cycles, exchanges)
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
