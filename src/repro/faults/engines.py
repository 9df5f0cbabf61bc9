"""Faulty engine proxies — the exchange-boundary seam of the fault plane.

Each proxy wraps one per-iteration gossip engine and applies the declared
injectors' verdicts *outside* the protocol logic: the engine under the
proxy still draws schedules and mutates node state exactly as before; the
proxy decides which exchanges actually carry a message (loss), carry it
twice (duplication), carry it later (delay), or carry a corrupted batch
(byzantine malformed).

Semantics shared by both planes:

* faults act on *exchanges* — the protocols' atomic message unit (an
  EESum exchange is one push–pull message pair);
* exchange counters count **attempted** sends: a dropped message still
  cost its initiator the send (bandwidth accounting matches a real lossy
  network, where the sender pays whether or not delivery succeeds);
* delayed exchanges are queued per protocol *phase* (identified by the
  protocol set of the cycle call) — a message delayed past the end of its
  phase is lost, because the protocol instance it addressed no longer
  gossips.

Determinism: proxies consume no engine RNG for fault decisions (injectors
own named streams), so wrapping an engine and injecting *nothing* leaves
the run bit-identical — pinned by
``tests/faults/test_fault_plane.py::test_empty_faults_block_is_bit_identical``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..gossip.engine import GossipEngine, Node
from ..gossip.vectorized_protocol import VectorizedGossipEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import FaultPlan

__all__ = ["FaultyObjectEngine", "FaultyVectorizedEngine"]


class _ExchangeInterceptor:
    """Presented to the inner object engine as its single protocol.

    The engine keeps full ownership of scheduling (churn redraw, shuffle,
    view sampling — all on the engine's own RNG); the interceptor sits at
    the point where the scheduled exchange would deliver and routes it
    through the proxy's verdict machinery with the *real* protocol set.
    """

    def __init__(self, proxy: "FaultyObjectEngine", protocols: tuple) -> None:
        self.proxy = proxy
        self.protocols = protocols

    def setup(self, node: Node, rng) -> None:  # pragma: no cover - unused
        pass

    def exchange(self, initiator: Node, contact: Node, rng) -> None:
        self.proxy._handle_exchange(initiator, contact, rng, self.protocols)


class FaultyObjectEngine:
    """Fault-injecting wrapper over :class:`~repro.gossip.engine.GossipEngine`.

    Every attribute not defined here (``nodes``, ``rng``, ``cycles``,
    ``mean_exchanges_per_node``, ...) delegates to the wrapped engine, so
    the proxy is drop-in for :class:`~repro.core.computation.ComputationStep`.
    """

    def __init__(self, engine: GossipEngine, plan: "FaultPlan", iteration: int) -> None:
        self._engine = engine
        self._plan = plan
        self._iteration = iteration
        self._delayed: list[tuple[int, int, int]] = []  # (due_cycle, init, contact)
        self._phase_key: tuple | None = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run_cycle(self, *protocols) -> int:
        engine, plan = self._engine, self._plan
        phase_key = tuple(id(p) for p in protocols)
        if phase_key != self._phase_key:
            # New protocol phase: messages delayed past their phase are lost.
            self._phase_key = phase_key
            self._delayed.clear()
        for injector in plan.injectors:
            injector.begin_cycle(self, protocols, self._iteration)
        # Flush delayed deliveries that have come due (before the cycle's
        # fresh exchanges, preserving arrival order).
        due = [entry for entry in self._delayed if entry[0] <= engine.cycles]
        self._delayed = [entry for entry in self._delayed if entry[0] > engine.cycles]
        for _, initiator_id, contact_id in due:
            self._deliver(
                engine.nodes[initiator_id], engine.nodes[contact_id],
                engine.rng, protocols,
            )
        interceptor = _ExchangeInterceptor(self, protocols)
        return self._engine.run_cycle(interceptor)

    def run_cycles(self, cycles: int, *protocols) -> int:
        total = 0
        for _ in range(cycles):
            total += self.run_cycle(*protocols)
        return total

    # ------------------------------------------------------------- internals

    def _handle_exchange(
        self, initiator: Node, contact: Node, rng, protocols: tuple
    ) -> None:
        # The one scheduled exchange is put to the same per-cycle hook the
        # array planes use, as a length-1 pairing.
        left = np.array([initiator.node_id])
        right = np.array([contact.node_id])
        copies = 0
        for injector in self._plan.injectors:
            left, right, extras, delayed = injector.transform_pairs(
                self._iteration, left, right
            )
            copies += sum(len(extra_left) for extra_left, _ in extras)
            for lag, d_left, _ in delayed:
                self._delayed += [
                    (self._engine.cycles + lag, initiator.node_id, contact.node_id)
                ] * len(d_left)
        for _ in range(len(left) + copies):
            self._deliver(initiator, contact, rng, protocols)

    def _deliver(
        self, initiator: Node, contact: Node, rng, protocols: tuple
    ) -> None:
        corruptions: list[tuple[Any, Any]] = []  # (injector, undo)
        for injector in self._plan.injectors:
            undo = injector.corrupt_object_exchange(
                self._iteration, initiator, contact
            )
            if undo is not None:
                corruptions.append((injector, undo))
        try:
            for protocol in protocols:
                protocol.exchange(initiator, contact, rng)
        except ValueError as exc:
            if not corruptions:
                raise  # a genuine protocol failure, not our injection
            for injector, undo in reversed(corruptions):
                undo()
            for injector, _ in corruptions:
                injector.on_rejected(
                    self._iteration, initiator.node_id, self._plan, exc
                )
            return  # the malformed message was rejected; nothing delivered
        for _, undo in reversed(corruptions):
            # The corruption went unnoticed by every active protocol this
            # exchange — roll it back so it cannot silently persist beyond
            # the message it was injected into.
            undo()


class FaultyVectorizedEngine:
    """Fault-injecting wrapper over :class:`VectorizedGossipEngine`.

    The vectorized engine realizes one cycle as a disjoint pairing; the
    proxy draws that pairing (consuming the engine's own RNG exactly as an
    unwrapped cycle would), then lets each injector transform it — drop
    pairs (loss/storms), queue pairs for later cycles (delay), replicate
    pairs (duplication) — and executes the surviving batches through the
    engine's ``run_pairing_cycle``.
    """

    def __init__(
        self, engine: VectorizedGossipEngine, plan: "FaultPlan", iteration: int
    ) -> None:
        self._engine = engine
        self._plan = plan
        self._iteration = iteration
        self._delayed: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._phase_key: tuple | None = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run_cycle(self, *protocols) -> tuple[np.ndarray, np.ndarray]:
        engine, plan = self._engine, self._plan
        phase_key = tuple(id(p) for p in protocols)
        if phase_key != self._phase_key:
            self._phase_key = phase_key
            self._delayed.clear()  # delayed past the phase boundary: lost
        for injector in plan.injectors:
            injector.begin_cycle(self, protocols, self._iteration)
        left, right, _idle = engine.draw_pairing()
        extras: list[tuple[np.ndarray, np.ndarray]] = []
        newly_delayed: list[tuple[int, np.ndarray, np.ndarray]] = []
        for injector in plan.injectors:
            left, right, injector_extras, injector_delayed = (
                injector.transform_pairs(self._iteration, left, right)
            )
            extras.extend(injector_extras)
            newly_delayed.extend(injector_delayed)
        total = engine.run_pairing_cycle(left, right, *protocols)
        for extra_left, extra_right in extras:
            total += engine.run_pairing_cycle(extra_left, extra_right, *protocols)
        due = [entry for entry in self._delayed if entry[0] <= engine.cycles]
        self._delayed = [
            entry for entry in self._delayed if entry[0] > engine.cycles
        ] + [
            (engine.cycles + lag, d_left, d_right)
            for lag, d_left, d_right in newly_delayed
        ]
        for _, d_left, d_right in due:
            total += engine.run_pairing_cycle(d_left, d_right, *protocols)
        engine.cycles += 1
        if engine.on_cycle is not None:
            engine.on_cycle(engine.cycles, total)
        return left, right

    def run_cycles(self, cycles: int, *protocols) -> int:
        total = 0
        for _ in range(cycles):
            left, _right = self.run_cycle(*protocols)
            total += len(left)
        return total
