"""Struct-of-arrays cycle driver — the one array gossip substrate.

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

Cycle semantics (mirroring :class:`repro.gossip.engine.GossipEngine`):

* every node redraws its online flag with the per-exchange churn
  probability of Sec. 6.1.5;
* one initiation round is realized as a uniform random disjoint pairing of
  the online nodes (each node participates in ≤ 1 exchange per cycle; the
  object engine's initiator/contact roles average to ~2 — message
  accounting is per participation in both cases, so latency comparisons
  normalize per exchange);
* the pairing is *exposed* (``run_cycle`` returns it), so the object engine
  can shadow-execute the identical schedule via
  :meth:`repro.gossip.engine.GossipEngine.run_pairing_cycle` — the
  equivalence tests in ``tests/gossip`` prove both planes produce identical
  decoded sums, ω-weights, counters and exchange counts on shared schedules.
"""

from __future__ import annotations

from typing import Protocol as TypingProtocol

import numpy as np

__all__ = ["VectorizedGossipEngine", "VectorizedProtocol", "random_pairing"]


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

    ``churn`` is the per-exchange disconnection probability, as in
    :class:`repro.gossip.engine.GossipEngine`.
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

    def run_pairing_cycle(
        self,
        left: np.ndarray,
        right: np.ndarray,
        *protocols: VectorizedProtocol,
    ) -> int:
        """Execute an externally-supplied pairing (shadow-execution hook)."""
        if len(left):
            for protocol in protocols:
                protocol.exchange_pairs(left, right)
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
            for protocol in protocols:
                protocol.exchange_pairs(left, right)
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
