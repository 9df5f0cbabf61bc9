"""The faulty engine proxy — the exchange-boundary seam of the fault plane.

One proxy wraps either per-iteration gossip engine and applies the declared
injectors' verdicts *outside* the protocol logic.  Both engines share one
cycle shape — ``draw_pairing()`` draws the cycle's whole (initiator,
contact) schedule on the engine's own RNG, and ``run_pairing_cycle(left,
right, *protocols)`` delivers a schedule — so the proxy judges a cycle the
same way on every plane:

1. a new protocol *phase* (the protocol set of the cycle call) drops the
   delayed messages of the last one — the protocol instance they addressed
   no longer gossips;
2. every injector's ``begin_cycle`` runs;
3. the engine draws the cycle's schedule;
4. every drawn pair is counted once, as an **attempted** send, whatever
   its verdict: the sender pays for a dropped, delayed or duplicated
   message as it would on a real lossy network;
5. the injectors' ``transform_pairs`` are chained over the whole schedule:
   drop pairs (loss, storms, isolated devices), replicate them
   (duplication), queue them for a later cycle (delay);
6. the kept pairs are delivered, then the duplicates, then the delayed
   pairs that came due.

Deliveries are not counted again.  On the object plane each one goes
through the corruption guard (``corrupt_object_exchange``, undo,
``on_rejected``); an array plane hands each batch to its protocols'
``exchange_pairs``.

Determinism: the proxy consumes no engine RNG beyond the schedule draw, and
injectors own named streams, so wrapping an engine and injecting *nothing*
leaves the run bit-identical — pinned by
``tests/faults/test_fault_plane.py::test_empty_faults_block_is_bit_identical``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import FaultPlan

__all__ = ["FaultyEngine"]


class FaultyEngine:
    """Fault-injecting wrapper over either gossip engine.

    Every attribute not defined here (``nodes``, ``rng``, ``cycles``,
    ``setup``, ``mean_exchanges_per_node``, ...) delegates to the wrapped
    engine, so the proxy is drop-in for the computation steps.
    """

    def __init__(self, engine: Any, plan: "FaultPlan", iteration: int) -> None:
        self._engine = engine
        self._plan = plan
        self._iteration = iteration
        # Object-plane node states, which deliveries guard; None on arrays.
        self._nodes = getattr(engine, "nodes", None)
        self._delayed: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._phase_key: tuple | None = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run_cycle(self, *protocols) -> tuple[np.ndarray, np.ndarray]:
        """One faulted cycle.  Returns the drawn ``(left, right)`` schedule."""
        engine, plan, iteration = self._engine, self._plan, self._iteration
        phase_key = tuple(id(p) for p in protocols)
        if phase_key != self._phase_key:
            self._phase_key = phase_key
            self._delayed.clear()  # delayed past the phase boundary: lost
        for injector in plan.injectors:
            injector.begin_cycle(self, protocols, iteration)
        drawn_left, drawn_right, _idle = engine.draw_pairing()
        # No protocol: the engine only counts each drawn pair's send.
        engine.run_pairing_cycle(drawn_left, drawn_right)
        left, right = drawn_left, drawn_right
        batches: list[tuple[np.ndarray, np.ndarray]] = []
        newly_delayed: list[tuple[int, np.ndarray, np.ndarray]] = []
        for injector in plan.injectors:
            left, right, extras, delayed = injector.transform_pairs(
                iteration, left, right
            )
            batches.extend(extras)
            newly_delayed.extend(delayed)
        due = [(l, r) for when, l, r in self._delayed if when <= engine.cycles]
        self._delayed = [
            entry for entry in self._delayed if entry[0] > engine.cycles
        ] + [(engine.cycles + lag, l, r) for lag, l, r in newly_delayed]
        for batch_left, batch_right in [(left, right), *batches, *due]:
            self._deliver(batch_left, batch_right, protocols)
        engine.cycles += 1
        if engine.on_cycle is not None:
            engine.on_cycle(engine.cycles, len(drawn_left))
        return drawn_left, drawn_right

    def run_cycles(self, cycles: int, *protocols) -> int:
        """Run ``cycles`` faulted cycles; returns the total drawn pairs."""
        total = 0
        for _ in range(cycles):
            drawn_left, _drawn_right = self.run_cycle(*protocols)
            total += len(drawn_left)
        return total

    # ------------------------------------------------------------- internals

    def _deliver(self, left: np.ndarray, right: np.ndarray, protocols: tuple) -> None:
        """Hand one batch of pairs to the protocols (already counted)."""
        if not len(left):
            return
        if self._nodes is None:
            for protocol in protocols:
                protocol.exchange_pairs(left, right)
            return
        nodes = self._nodes
        for initiator_id, contact_id in zip(left.tolist(), right.tolist()):
            self._guarded_exchange(nodes[initiator_id], nodes[contact_id], protocols)

    def _guarded_exchange(self, initiator: Any, contact: Any, protocols: tuple) -> None:
        """One object-plane delivery, with the injectors' corruptions in it."""
        plan, iteration = self._plan, self._iteration
        corruptions: list[tuple[Any, Any]] = []  # (injector, undo)
        for injector in plan.injectors:
            undo = injector.corrupt_object_exchange(iteration, initiator, contact)
            if undo is not None:
                corruptions.append((injector, undo))
        try:
            for protocol in protocols:
                protocol.exchange(initiator, contact)
        except ValueError as exc:
            if not corruptions:
                raise  # a genuine protocol failure, not our injection
            for injector, undo in reversed(corruptions):
                undo()
            for injector, _ in corruptions:
                injector.on_rejected(iteration, initiator.node_id, plan, exc)
            return  # the malformed message was rejected; nothing delivered
        for _, undo in reversed(corruptions):
            # The corruption went unnoticed by every active protocol this
            # exchange — roll it back so it cannot silently persist beyond
            # the message it was injected into.
            undo()
