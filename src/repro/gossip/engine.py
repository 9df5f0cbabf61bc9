"""The object gossip engine: per-node protocol objects on the array schedule.

The engine keeps each participant as a :class:`Node` whose state a
pluggable :class:`GossipProtocol` mutates one exchange at a time — the
plane that carries genuine per-device ciphertexts.  Its schedule is the
array engine's (:class:`~repro.gossip.vectorized_protocol.
VectorizedGossipEngine`, which it extends): per cycle, every node redraws
its online flag with the churn probability of Sec. 6.1.5, and the online
nodes are paired uniformly and disjointly.  At the same seed both engines
draw the same pairings, so the object and array planes gossip the same
schedule.

The pairing drops one property of Peersim's cycle-driven mode, which the
paper used: there every online node initiates once per cycle and the
exchanges run one after another, so a node contacted by several initiators
takes part in several exchanges of one cycle and a value can travel many
hops per cycle.  On a disjoint pairing a node takes part in at most one
exchange per cycle (about one on average, against about two), so the run
gossips twice the cycles for the paper's ``n_e`` per-node exchanges
(:func:`~repro.gossip.vectorized_protocol.pairing_cycles`), and Alg. 2's
exchange counter rises by at most one per cycle — the proved bound the
packed codec is sized from.  What the lost chaining costs in epidemic
error at a given ``n_e`` is ROADMAP item 22's measurement.

Node states are plain dicts owned by the protocols, keyed by protocol
name, so several protocols can run "in parallel" over the same exchanges
(the paper runs the means-EESum and the noise-EESum on the same gossip
stream).  The per-node facts the schedule owns — the online mask and the
exchange counters, the unit of Theorem 3 and the Fig. 4 latency plots —
live once, in the engine's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

import numpy as np

from .vectorized_protocol import VectorizedGossipEngine

__all__ = ["Node", "GossipProtocol", "GossipEngine"]


@dataclass
class Node:
    """One simulated participant: its id and its protocols' states."""

    node_id: int
    state: dict = field(default_factory=dict)


class GossipProtocol(TypingProtocol):
    """Anything that can react to a pairwise gossip exchange."""

    def setup(self, node: Node) -> None:
        """Initialize the per-node state before the first cycle."""

    def exchange(self, initiator: Node, contact: Node) -> None:
        """Perform one point-to-point exchange (mutates both states)."""


class GossipEngine(VectorizedGossipEngine):
    """The array engine's schedule, delivered to per-node protocol objects."""

    def __init__(self, n_nodes: int, seed: int = 0, churn: float = 0.0) -> None:
        super().__init__(n_nodes, seed=seed, churn=churn)
        self.nodes = [Node(node_id=i) for i in range(n_nodes)]

    def setup(self, *protocols: GossipProtocol) -> None:
        """Run every protocol's per-node initialization."""
        for node in self.nodes:
            for protocol in protocols:
                protocol.setup(node)

    def _deliver(
        self, left: np.ndarray, right: np.ndarray, protocols: tuple
    ) -> None:
        """Pair ``i`` is ``left[i]`` initiating with ``right[i]``, in order."""
        nodes = self.nodes
        for initiator_id, contact_id in zip(left.tolist(), right.tolist()):
            initiator, contact = nodes[initiator_id], nodes[contact_id]
            for protocol in protocols:
                protocol.exchange(initiator, contact)

    def run_cycle(self, *protocols: GossipProtocol) -> int:
        """One cycle: churn redraw, pairing, exchanges.  Returns #exchanges."""
        left, _right = super().run_cycle(*protocols)
        return len(left)

    def run_cycles(self, cycles: int, *protocols: GossipProtocol) -> int:
        """Run ``cycles`` full cycles; returns the total exchange count."""
        return sum(self.run_cycle(*protocols) for _ in range(cycles))
