"""Fault-plane foundations: the registry, the injector contract, run binding.

The design rule of this package (the fact-extraction vs. rules-engine
separation): fault *injection* is strictly separate from protocol *logic*.
Protocol modules (``gossip``, ``core``) never know a fault exists — the
plane reaches them through exactly two neutral seams in
:class:`~repro.core.protocol.ChiaroscuroRun`:

1. ``engine = plan.wrap_engine(engine, iteration)`` — the per-iteration
   gossip engine, on either plane, is wrapped in the one proxy
   (:mod:`repro.faults.engines`) that judges each cycle's drawn schedule
   at the *exchange boundary* (message loss, duplication, delay, storms,
   malformed batches);
2. ``output = plan.observe_output(output, iteration)`` — the decoded
   per-node reports pass through the plane, which injects byzantine
   reports, runs the Sec. 4.4 detection machinery
   (:class:`~repro.core.verification.DecryptionCrossCheck`), and audits
   coalitions.

A fault *class* is a frozen dataclass registered in :data:`FAULTS` under a
string key (the same :class:`~repro.api.registry.Registry` pattern every
other pluggable component uses), so a :class:`~repro.api.spec.RunSpec` can
declare attacks declaratively and the service can sweep attack grids.

Determinism contract: every injector draws from its **own named RNG
stream** (seeded from the run seed, the fault's registry key and its
position in the spec) and never touches engine or protocol RNG — a spec
with an empty ``faults`` block is bit-identical to a run without the fault
plane, and a faulted run is reproducible from its spec alone.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any

import numpy as np

from ..api.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.computation import ComputationOutput
    from .plan import FaultPlan

__all__ = [
    "FAULTS",
    "FaultAbort",
    "FaultInjector",
    "RunBinding",
    "build_fault",
    "fault_rng",
    "register_fault",
]

#: Registry of fault classes: string key → frozen config dataclass.
FAULTS = Registry("fault")


def register_fault(key: str):
    """Decorator: register a frozen fault-config dataclass under ``key``.

    The dataclass must expose ``build(rng) -> FaultInjector``; its
    constructor kwargs are the ``params`` block of the spec entry.
    """
    return FAULTS.register(key)


def build_fault(kind: str, params: dict) -> Any:
    """Instantiate the registered fault config for ``kind`` (validating)."""
    cls = FAULTS.get(kind)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad params for fault {kind!r}: {exc}") from None


def fault_rng(seed: int, kind: str, index: int) -> np.random.Generator:
    """The named RNG stream for one injector.

    Keyed by (run seed, registry key, position in the faults block) via a
    seed sequence, so streams are independent of each other, stable across
    processes (no ``PYTHONHASHSEED`` dependence), and never overlap the
    run's own ``seed``/``seed + 1``/``seed + 1000·i`` streams.
    """
    return np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, 0xFA017, index, zlib.crc32(kind.encode())]
    )


class FaultAbort(RuntimeError):
    """A fault was detected that the protocol cannot safely continue past.

    Raised by injectors/detectors inside the fault plane; caught by
    :meth:`repro.api.experiment.Experiment.run_iter`, which turns it into a
    :class:`~repro.api.events.RunAborted` event and a final result with
    reason ``"aborted"`` — a *clean* abort, never a stack trace.
    """

    def __init__(self, fault: str, iteration: int, reason: str) -> None:
        super().__init__(reason)
        self.fault = fault
        self.iteration = iteration
        self.reason = reason


class RunBinding:
    """What the fault plane may know about the run it attacks.

    A deliberately narrow read-only view over
    :class:`~repro.core.protocol.ChiaroscuroRun` — injectors get the
    population facts and (on the object plane) the dealer-side key
    material a compromised coalition would hold, nothing else.
    """

    def __init__(self, run: Any) -> None:
        self.population: int = run.dataset.t
        self.plane: str = run.plane
        self.threshold: int = run.params.tau_count(self.population)
        self.n_noise_shares: int = run.params.noise_share_count(self.population)
        self.seed: int = run.seed
        #: ``ThresholdKeypair`` on the object plane, ``None`` on vectorized —
        #: the mock-homomorphic plane has no key material *in play* to steal
        #: (even when a keypair was handed to the run as a construction
        #: shortcut, no ciphertext there is ever under it).
        self.keypair = run.keypair if self.plane == "object" else None


class FaultInjector:
    """Base class: every hook is a no-op so injectors override only theirs.

    Lifecycle per run: ``bind`` once (after key material exists), then per
    gossip cycle ``begin_cycle`` / ``transform_pairs`` / corruption hooks,
    and ``observe_output`` once per iteration, when the step's decoded
    reports exist.
    """

    #: registry key, filled by the config's ``build``
    kind: str = ""

    def bind(self, binding: RunBinding, plan: "FaultPlan") -> None:
        """Called once per run, before the first iteration."""

    # ------------------------------------------------------- exchange level

    def begin_cycle(self, engine: Any, protocols: tuple, iteration: int) -> None:
        """Called before each gossip cycle with the active protocol set."""

    def transform_pairs(
        self,
        iteration: int,
        left: np.ndarray,
        right: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[tuple[int, np.ndarray, np.ndarray]]]:
        """The network-level verdict over a batch of scheduled exchanges.

        Both planes pass a cycle's whole drawn schedule (the object plane's
        initiators and contacts, an array plane's disjoint pairing); every
        pair in it was already counted as a send.  Returns
        ``(keep_left, keep_right, extra_batches, delayed)`` where
        ``extra_batches`` are delivered this cycle *in addition* (duplicated
        messages) and ``delayed`` entries are ``(cycles_from_now, l, r)``.
        """
        return left, right, [], []

    def corrupt_object_exchange(
        self, iteration: int, initiator: Any, contact: Any
    ) -> Any:
        """Chance to tamper with node state before delivery (object plane).

        Returns an undo callable (or ``None``); the proxy restores state
        when no active protocol rejected the malformed message, so an
        unnoticed corruption cannot silently persist outside the exchange
        it was injected into.
        """
        return None

    def on_rejected(
        self, iteration: int, node_id: int, plan: "FaultPlan", error: Exception
    ) -> None:
        """A protocol rejected a message this injector corrupted.

        Called by the engine proxy when a delivery carrying this injector's
        corruption raised at the exchange boundary (the corruption has
        already been rolled back) — the injector decides whether that
        detection escalates to a :class:`FaultAbort`.
        """

    # --------------------------------------------------------- report level

    def observe_output(
        self, output: "ComputationOutput", iteration: int, plan: "FaultPlan"
    ) -> "ComputationOutput":
        """Inject into / detect over the decoded per-node reports."""
        return output
