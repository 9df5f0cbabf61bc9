"""Min-identifier epidemic dissemination — ``EpiDis`` (Sec. 4.2.2).

The noise-surplus correction must be *unique* across the population: every
participant proposes its own correction vector tagged with a random
identifier, and dissemination keeps, at every exchange, the proposal with
the smallest identifier.  Standard epidemic-diffusion results apply: the
probability that some node misses the global minimum decays exponentially
with the number of exchanges (the paper: < 50 messages per participant for
one million nodes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .engine import Node

__all__ = ["MinIdDissemination", "VectorizedMinId"]

_STATE = "epidis"


class MinIdDissemination:
    """Keep-the-smallest-identifier flooding of (identifier, payload) pairs.

    ``proposals`` maps node id → (identifier, payload); nodes without a
    proposal start empty and adopt whatever they hear first.
    """

    def __init__(self, proposals: dict[int, tuple[int, Any]]) -> None:
        self.proposals = proposals

    def setup(self, node: Node) -> None:
        node.state[_STATE] = self.proposals.get(node.node_id)

    def value_of(self, node: Node) -> tuple[int, Any] | None:
        """The node's current (identifier, payload) belief."""
        return node.state[_STATE]

    def exchange(self, initiator: Node, contact: Node) -> None:
        a = initiator.state[_STATE]
        b = contact.state[_STATE]
        proposals = [x for x in (a, b) if x is not None]
        best = min(proposals, key=lambda pair: pair[0], default=None) if proposals else None
        initiator.state[_STATE] = best
        contact.state[_STATE] = best

    def converged(self, nodes: list[Node]) -> bool:
        """True when every node holds the same (global-minimum) proposal."""
        values = {node.state[_STATE] and node.state[_STATE][0] for node in nodes}
        return len(values) == 1 and None not in values


class VectorizedMinId:
    """EpiDis as whole-population array operations (struct-of-arrays).

    ``ids`` holds one proposal identifier per node; nodes without a proposal
    carry :attr:`NO_PROPOSAL` (which loses every minimum, exactly like the
    object protocol's ``None`` state).  On an exchange both sides adopt the
    smaller identifier — ties resolve to the same value on both planes, so
    shadow execution on a shared pairing schedule yields identical final
    identifier arrays (asserted in ``tests/gossip``).

    Payloads are resolved *by identifier*: the protocol gossips only the
    64-bit identifiers (what dominates the paper's message accounting);
    the caller maps the final identifiers back to the payloads it proposed,
    which is exact because an identifier uniquely names its proposal.
    """

    NO_PROPOSAL = np.iinfo(np.int64).max

    def __init__(self, ids: np.ndarray) -> None:
        ids = np.array(ids, dtype=np.int64, copy=True)
        if ids.ndim != 1 or len(ids) < 2:
            raise ValueError("ids must be one identifier per node (pop >= 2)")
        self.ids = ids

    def exchange_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        best = np.minimum(self.ids[left], self.ids[right])
        self.ids[left] = best
        self.ids[right] = best

    def converged(self) -> bool:
        """True when every node holds the same (global-minimum) identifier
        — the array mirror of :meth:`MinIdDissemination.converged`."""
        first = self.ids[0]
        return first != self.NO_PROPOSAL and bool((self.ids == first).all())
