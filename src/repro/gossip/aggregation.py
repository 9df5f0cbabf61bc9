"""Cleartext epidemic aggregation (Sec. 3.2) — the Kempe et al. sum protocol.

Every node holds a local state ``(σ, ω)``; the update rule moves half of
each to the contact at every exchange, and ``σ/ω`` converges exponentially
fast to the global sum (one designated node starts with ``ω = 1``, all
others with ``ω = 0`` — footnote 5 of the paper).  Which node is immaterial
to the protocol, so every sum in this package — cleartext, encrypted, array
— designates node 0.

This protocol is used directly for the cleartext *counter* of the noise
generation (the ``ctr`` of Alg. 3) and serves as the reference the
encrypted EESum is tested against (the Alg. 2 update rule is proved
arithmetically equivalent in App. C.2.1).
"""

from __future__ import annotations

import numpy as np

from .engine import GossipProtocol, Node

__all__ = ["EpidemicSum"]

_STATE = "episum"


class EpidemicSum(GossipProtocol):
    """Push–pull averaging of a per-node vector; ``σ/ω`` estimates the sum.

    ``initial`` maps node id → initial vector (numpy array or float).
    """

    def __init__(self, initial: dict[int, np.ndarray]) -> None:
        self.initial = initial

    def setup(self, node: Node) -> None:
        value = np.asarray(self.initial.get(node.node_id, 0.0), dtype=float)
        node.state[_STATE] = {
            "sigma": value.copy(),
            "omega": 1.0 if node.node_id == 0 else 0.0,
        }

    def exchange(self, initiator: Node, contact: Node) -> None:
        a = initiator.state[_STATE]
        b = contact.state[_STATE]
        sigma = (a["sigma"] + b["sigma"]) / 2.0
        omega = (a["omega"] + b["omega"]) / 2.0
        a["sigma"] = sigma.copy()
        b["sigma"] = sigma.copy()
        a["omega"] = omega
        b["omega"] = omega

    def estimate(self, node: Node) -> np.ndarray | None:
        """The node's local estimate ``σ/ω`` of the global sum (None if ω = 0)."""
        state = node.state[_STATE]
        if state["omega"] <= 0:
            return None
        return state["sigma"] / state["omega"]
