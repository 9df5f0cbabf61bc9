"""Struct-of-arrays cycle driver — the one gossip schedule.

A cycle-driven engine whose per-node state lives in numpy arrays (online
mask, exchange counters) and whose protocols —
:class:`~repro.gossip.eesum.VectorizedEESum` (Algorithm 2 with
delayed-division counters),
:class:`~repro.gossip.dissemination.VectorizedMinId` (EpiDis),
:class:`~repro.gossip.decryption.VectorizedShareCollection` (epidemic
decryption collection) — implement one whole-population
``exchange_pairs(left, right)`` per cycle instead of per-node ``exchange``
calls.  This is what carries the paper's 10⁵–10⁶-participant curves
(Figs. 3–4) through the *exact* protocol semantics; the two Fig. 4(a)
measurements taken on it live beside their benches, in
``benchmarks/latency_composition.py``.

Cycle semantics, shared by the object engine
(:class:`repro.gossip.engine.GossipEngine` extends this one and only
delivers each pair to per-node protocol objects instead):

* every node redraws its online flag with the per-exchange churn
  probability of Sec. 6.1.5;
* one initiation round is a uniform random disjoint pairing of the online
  nodes (:func:`random_pairing`; an odd node out idles), so a node takes
  part in at most one exchange per cycle;
* a phase runs :func:`pairing_cycles` cycles for the paper's ``n_e``
  per-node exchanges — the one cycle rule of every gossiping plane.

This drops Peersim's within-cycle chaining (a node contacted by several
initiators exchanges several times in one cycle), which is what makes
Alg. 2's counter rise by at most one per cycle; ROADMAP item 22 owns the
comparison of epidemic error between the two schedules.  The pairing is
*exposed* (``draw_pairing``, ``run_pairing_cycle``), so the fault proxy
can judge it and the equivalence tests in ``tests/gossip`` can hand one
drawn schedule to both planes.
"""

from __future__ import annotations

from typing import Protocol as TypingProtocol

import numpy as np

__all__ = [
    "VectorizedGossipEngine",
    "VectorizedProtocol",
    "pairing_cycles",
    "random_pairing",
]


def pairing_cycles(exchanges: int) -> int:
    """Cycles per gossip phase for ``exchanges`` (the paper's ``n_e``).

    ``n_e`` counts exchanges per node; a Peersim cycle gives a node about
    two (it initiates once and is contacted about once), a disjoint
    pairing at most one.  So a phase runs ``2·n_e`` cycles, which is also
    the proved bound on a fault-free phase's Alg. 2 counter.
    """
    return 2 * exchanges


def random_pairing(
    rng: np.random.Generator, indices: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniform random disjoint pairing of ``indices`` (one odd leftover idles).

    The canonical vectorized realization of one gossip initiation round.
    An int ``indices`` means ``arange(indices)`` (same draw, same output).
    Returns ``(left, right, idle)``; ``idle`` holds the leftover, if any.
    """
    shuffled = rng.permutation(indices)
    half = len(shuffled) // 2
    return shuffled[:half], shuffled[half : 2 * half], shuffled[2 * half :]


class VectorizedProtocol(TypingProtocol):
    """Anything that can react to a batch of disjoint pairwise exchanges."""

    def exchange_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """Perform one batch of simultaneous point-to-point exchanges."""


class VectorizedGossipEngine:
    """Cycle-driven engine over array state — the 10⁵–10⁶-node substrate.

    ``churn`` is the per-exchange disconnection probability of Sec. 6.1.5.
    """

    def __init__(
        self,
        population: int,
        seed: int | np.random.Generator = 0,
        churn: float = 0.0,
    ) -> None:
        if population < 2:
            raise ValueError("need at least two nodes to gossip")
        if not 0 <= churn < 1:
            raise ValueError("churn must be in [0, 1)")
        self.rng = np.random.default_rng(seed)
        self.population = population
        self.churn = churn
        self.exchanges = np.zeros(population, dtype=np.int64)
        self.online = np.ones(population, dtype=bool)
        self.cycles = 0
        # Observability hook: called after every cycle with
        # (cycle_index, exchanges_in_cycle); must not consume engine RNG.
        self.on_cycle = None

    def draw_pairing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Redraw the online mask, then pair the online nodes uniformly.

        Returns ``(left, right, idle)``: the pairs, and the online nodes
        left out of them.  Consumes engine randomness; exposed separately
        so a shadow test can capture the schedule before applying it to
        both planes.
        """
        if self.churn == 0.0:
            # Draw-free: a churn-free run consumes no RNG stream for the
            # mask and keeps the all-True one it was built with.
            return random_pairing(self.rng, self.population)
        self.online = self.rng.random(self.population) >= self.churn
        alive = np.flatnonzero(self.online)
        if len(alive) < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, alive
        return random_pairing(self.rng, alive)

    def _deliver(
        self, left: np.ndarray, right: np.ndarray, protocols: tuple
    ) -> None:
        """Hand one batch of disjoint pairs to the protocols."""
        for protocol in protocols:
            protocol.exchange_pairs(left, right)

    def run_pairing_cycle(
        self,
        left: np.ndarray,
        right: np.ndarray,
        *protocols: VectorizedProtocol,
    ) -> int:
        """Execute an externally-supplied pairing and count it (the fault
        proxy's and the shadow tests' hook).  Returns #exchanges."""
        if len(left):
            self._deliver(left, right, protocols)
            self.exchanges[left] += 1
            self.exchanges[right] += 1
        return len(left)

    def run_cycle(
        self, *protocols: VectorizedProtocol
    ) -> tuple[np.ndarray, np.ndarray]:
        """One cycle: churn redraw, pairing, exchanges.  Returns the pairing.

        The draw pairs every online node but ``idle``, so the counters
        advance by the online mask minus the idle node rather than by two
        scatters over the pairs.
        """
        left, right, idle = self.draw_pairing()
        if len(left):
            self._deliver(left, right, protocols)
            self.exchanges += self.online
            self.exchanges[idle] -= 1
        self.cycles += 1
        if self.on_cycle is not None:
            self.on_cycle(self.cycles, len(left))
        return left, right

    def run_cycles(self, cycles: int, *protocols: VectorizedProtocol) -> int:
        """Run ``cycles`` full cycles; returns the total exchange count."""
        total = 0
        for _ in range(cycles):
            left, _right = self.run_cycle(*protocols)
            total += len(left)
        return total

    @property
    def mean_exchanges_per_node(self) -> float:
        """Average number of exchange participations per node so far."""
        return float(self.exchanges.mean())
