"""FaultPlan — per-run orchestration of the declared fault injectors.

An :class:`~repro.api.experiment.Experiment` builds one plan per run from
``RunSpec.faults`` and hands it to :class:`~repro.core.protocol.ChiaroscuroRun`
(which stays injector-agnostic: it calls exactly two neutral seams,
``wrap_engine`` and ``observe_output``).  The plan:

* instantiates **fresh** injectors with fresh named RNG streams on every
  ``bind_run`` — re-running an experiment object replays identical faults;
* wraps each per-iteration gossip engine, on either plane, in the one
  fault proxy (:class:`~repro.faults.engines.FaultyEngine`);
* chains the injectors' report-level hooks after every computation step;
* buffers :class:`~repro.api.events.FaultDetected` events for the facade
  to drain into the run's event stream.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..api.events import FaultDetected
from ..api.spec import jsonify
from .base import FaultAbort, RunBinding, build_fault, fault_rng
from .engines import FaultyEngine
from .network import NetworkFault

__all__ = ["FaultPlan"]


class FaultPlan:
    """The fault configuration of one run, plus its per-run live state."""

    def __init__(self, entries: Iterable[tuple[str, Any]], seed: int) -> None:
        #: ``(registry kind, frozen config)`` pairs, in spec order.
        self.entries: tuple[tuple[str, Any], ...] = tuple(entries)
        self.seed = int(seed)
        self.injectors: list = []
        self.binding: RunBinding | None = None
        self._events: list[FaultDetected] = []

    @classmethod
    def from_spec(cls, spec: Any) -> "FaultPlan | None":
        """Build the plan a spec declares; ``None`` when it declares none."""
        faults = getattr(spec, "faults", ())
        if not faults:
            return None
        entries = [(f.kind, build_fault(f.kind, f.params)) for f in faults]
        return cls(entries, spec.seed)

    @property
    def batches_per_cycle(self) -> int:
        """Most batches of disjoint pairs the proxy delivers in one cycle.

        The kept pairs are one batch; only network faults add more.  A node
        takes part in at most one exchange per batch, so a phase of ``c``
        cycles raises Alg. 2's counter by at most ``c`` times this.
        """
        return 1 + sum(
            config.extra_batches
            for _, config in self.entries
            if isinstance(config, NetworkFault)
        )

    # ------------------------------------------------------------- lifecycle

    def bind_run(self, run: Any) -> None:
        """Attach to a :class:`ChiaroscuroRun`; instantiates fresh injectors.

        Called from the run's constructor once population and (object
        plane) key material exist; bind-time detections (e.g. the device
        registry rejecting unenrolled devices) are buffered as iteration-0
        events and drained with the first iteration.
        """
        self.binding = RunBinding(run)
        self.injectors = []
        self._events = []
        for index, (kind, config) in enumerate(self.entries):
            injector = config.build(fault_rng(self.binding.seed, kind, index))
            injector.kind = kind
            self.injectors.append(injector)
        for injector in self.injectors:
            injector.bind(self.binding, self)

    def wrap_engine(self, engine: Any, iteration: int) -> FaultyEngine:
        """The per-iteration engine seam: wrap in the fault proxy."""
        return FaultyEngine(engine, self, iteration)

    def observe_output(self, output: Any, iteration: int) -> Any:
        """The report seam: chain every injector's report-level hook."""
        for injector in self.injectors:
            output = injector.observe_output(output, iteration, self)
        return output

    # ---------------------------------------------------------------- events

    def detected(
        self,
        iteration: int,
        fault: str,
        detector: str,
        participants: Iterable[int],
        detail: dict,
    ) -> None:
        """Buffer a detection event (drained into the run's event stream)."""
        self._events.append(
            FaultDetected(
                iteration=int(iteration),
                fault=fault,
                detector=detector,
                participants=tuple(int(p) for p in participants),
                detail=jsonify(detail),
            )
        )

    def drain_events(self) -> list[FaultDetected]:
        events, self._events = self._events, []
        return events

    def abort(self, fault: str, iteration: int, reason: str) -> None:
        """Escalate a detection to a clean run abort."""
        raise FaultAbort(fault, int(iteration), reason)
