"""Typed streaming events emitted by ``Experiment.run_iter``.

The event stream is the observation surface of a run: every frontend
(CLI progress table, benchmark telemetry, a future service pushing
server-sent events) consumes the same sequence —

    RunStarted, (IterationCompleted [CheckpointSaved])*, RunCompleted

Runs executing under a fault plane (``RunSpec.faults``) may interleave
:class:`FaultDetected` events (the Sec. 4.4 countermeasures flagged an
injected adversary) and may end with a :class:`RunAborted` immediately
before the final ``RunCompleted`` (whose reason is then ``"aborted"``).

A consumer may stop iterating at any point (early stopping); generators
clean up behind it, and any checkpoints already written remain resumable.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.results import ClusteringResult, IterationStats
    from .spec import RunSpec

__all__ = [
    "CheckpointSaved",
    "FaultDetected",
    "IterationCompleted",
    "RunAborted",
    "RunCompleted",
    "RunEvent",
    "RunStarted",
    "event_to_dict",
]


@dataclass(frozen=True)
class RunStarted:
    """Emitted once, before the first iteration (or after a resume)."""

    # repro-lint: allow=event-wire-sync -- heavyweight payload lives in the job record, not the wire form
    spec: "RunSpec"
    label: str  # paper-style strategy label, e.g. "G_SMA"
    dataset_name: str
    t: int  # stored series / participants
    n: int  # series length
    population: int  # effective individuals (t × population_scale)
    sum_sensitivity: float
    resumed_iteration: int = 0  # 0 = fresh run; i = resuming after iteration i
    crypto_backend: str = "serial"  # ciphertext-batch executor (params sheet)
    bigint_backend: str = "python"  # *resolved* arithmetic kernel, never "auto"
    key_bits: int = 0  # threshold-key modulus size (0 = no real crypto ran)

    @property
    def environment(self) -> dict:
        """The ``environment`` block of the run record, as captured at run time."""
        return {
            "crypto_backend": self.crypto_backend,
            "bigint_backend": self.bigint_backend,
            "key_bits": self.key_bits,
        }


@dataclass(frozen=True)
class IterationCompleted:
    """One finished iteration: the paper's stats plus run-level counters."""

    stats: "IterationStats"
    epsilon_spent_total: float
    epsilon_remaining: float
    active_series: int | None = None  # churn counter (quality plane)
    agreement: float | None = None  # epidemic spread (protocol planes)
    exchanges_per_node: float | None = None  # gossip counter (protocol planes)
    crypto_ms: float | None = None  # timed crypto wall (vectorized-crypto only)

    @property
    def iteration(self) -> int:
        return self.stats.iteration

    @property
    def n_centroids(self) -> int:
        return self.stats.n_centroids


@dataclass(frozen=True)
class CheckpointSaved:
    """A resumable checkpoint for the just-completed iteration was written."""

    iteration: int
    path: pathlib.Path


@dataclass(frozen=True)
class FaultDetected:
    """A Sec. 4.4 countermeasure flagged an injected fault during a run.

    ``detector`` names the machinery that fired (``device-registry``,
    ``exchange-guard``, ``decryption-cross-check``, ``coalition-audit``,
    ``availability-monitor``); ``participants`` are the offending device
    ids (capped to a readable prefix for large coalitions) and ``detail``
    is a small JSON-ready dict of detector-specific evidence.
    """

    iteration: int
    fault: str  # fault registry key, e.g. "byzantine"
    detector: str
    participants: tuple = ()
    detail: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(
            self, "detail", dict(self.detail) if self.detail else {}
        )


@dataclass(frozen=True)
class RunAborted:
    """A detected fault the protocol cannot safely continue past.

    Emitted at most once, immediately before the final ``RunCompleted``
    (whose reason is then ``"aborted"``).  ``epsilon_charged`` is the total
    privacy budget consumed *including* the aborted iteration's slice — the
    accountant charges before the iteration runs, so an abort never
    under-reports spend.
    """

    iteration: int
    fault: str
    reason: str
    epsilon_charged: float


@dataclass(frozen=True)
class RunCompleted:
    """Emitted once; carries the final result (and reason the loop ended)."""

    result: "ClusteringResult"
    reason: str  # "converged" | "budget" | "iterations" | "clusters-lost" | "aborted"


RunEvent = Union[
    RunStarted,
    IterationCompleted,
    CheckpointSaved,
    FaultDetected,
    RunAborted,
    RunCompleted,
]


def event_to_dict(event: RunEvent) -> dict:
    """Flatten a run event to a JSON-ready dict with a ``"type"`` tag.

    This is the wire form of the event stream — what the service appends
    to its NDJSON logs and what any future push transport would send.  The
    heavyweight payloads stay out: ``RunStarted.spec`` lives in the job
    record and ``RunCompleted.result`` in the run record, so event lines
    stay one-screen greppable.
    """
    if isinstance(event, RunStarted):
        return {
            "type": "run_started",
            "label": event.label,
            "dataset": event.dataset_name,
            "t": event.t,
            "n": event.n,
            "population": event.population,
            "sum_sensitivity": event.sum_sensitivity,
            "resumed_iteration": event.resumed_iteration,
            "crypto_backend": event.crypto_backend,
            "bigint_backend": event.bigint_backend,
            "key_bits": event.key_bits,
        }
    if isinstance(event, IterationCompleted):
        stats = event.stats
        return {
            "type": "iteration_completed",
            "iteration": stats.iteration,
            "pre_inertia": stats.pre_inertia,
            "post_inertia": stats.post_inertia,
            "n_centroids": stats.n_centroids,
            "epsilon_spent": stats.epsilon_spent,
            "epsilon_spent_total": event.epsilon_spent_total,
            "epsilon_remaining": event.epsilon_remaining,
            "active_series": event.active_series,
            "agreement": event.agreement,
            "exchanges_per_node": event.exchanges_per_node,
            "crypto_ms": event.crypto_ms,
        }
    if isinstance(event, CheckpointSaved):
        return {
            "type": "checkpoint_saved",
            "iteration": event.iteration,
            "path": str(event.path),
        }
    if isinstance(event, FaultDetected):
        return {
            "type": "fault_detected",
            "iteration": event.iteration,
            "fault": event.fault,
            "detector": event.detector,
            "participants": list(event.participants),
            "detail": dict(event.detail),
        }
    if isinstance(event, RunAborted):
        return {
            "type": "run_aborted",
            "iteration": event.iteration,
            "fault": event.fault,
            "reason": event.reason,
            "epsilon_charged": event.epsilon_charged,
        }
    if isinstance(event, RunCompleted):
        return {
            "type": "run_completed",
            "reason": event.reason,
            "iterations": event.result.iterations,
            "converged": event.result.converged,
            "n_centroids": (
                event.result.history[-1].n_centroids
                if event.result.history
                else 0
            ),
        }
    raise TypeError(f"not a run event: {type(event).__name__}")
