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

The record is the event: ``IterationCompleted`` is the loop's own
:class:`~repro.core.results.IterationRecord`, yielded as is.  The wire form
(:func:`event_to_dict`) is read off each event's dataclass fields, so a new
fact is one new field; ``field(metadata={"wire": False})`` keeps a field off
the wire and ``{"wire": "<key>"}`` sends it under another key.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Iterator, Union

from ..core.results import ClusteringResult, IterationRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
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

    # heavyweight payload: lives in the job record, not on every event line
    spec: "RunSpec" = field(metadata={"wire": False})
    label: str  # paper-style strategy label, e.g. "G_SMA"
    dataset_name: str = field(metadata={"wire": "dataset"})
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


#: One finished iteration — the paper's stats plus run-level counters — is
#: the record the Algorithm 1 loop yielded, under the name consumers match.
IterationCompleted = IterationRecord


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

    # heavyweight payload: lives in the run record; its summary is the
    # three derived fields below
    result: ClusteringResult = field(metadata={"wire": False})
    reason: str  # "converged" | "budget" | "iterations" | "clusters-lost" | "aborted"
    iterations: int = field(init=False)
    converged: bool = field(init=False)
    n_centroids: int = field(init=False)  # of the last iteration; 0 when none ran

    def __post_init__(self) -> None:
        history = self.result.history
        object.__setattr__(self, "iterations", self.result.iterations)
        object.__setattr__(self, "converged", self.result.converged)
        object.__setattr__(
            self, "n_centroids", history[-1].n_centroids if history else 0
        )


#: Event class → its ``"type"`` tag on the wire; the keys are the union.
EVENT_TAGS = {
    RunStarted: "run_started",
    IterationCompleted: "iteration_completed",
    CheckpointSaved: "checkpoint_saved",
    FaultDetected: "fault_detected",
    RunAborted: "run_aborted",
    RunCompleted: "run_completed",
}

RunEvent = Union[tuple(EVENT_TAGS)]


def _wire_items(obj: Any) -> Iterator[tuple[str, Any]]:
    """``(key, value)`` per on-wire field, in declaration order; a nested
    dataclass (``stats``) contributes its own fields in place."""
    for f in fields(obj):
        key = f.metadata.get("wire", f.name)
        if key is False:
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _wire_items(value)
        elif isinstance(value, pathlib.PurePath):
            yield key, str(value)
        else:
            yield key, list(value) if isinstance(value, tuple) else value


def event_to_dict(event: RunEvent) -> dict:
    """Flatten a run event to a JSON-ready dict with a ``"type"`` tag.

    This is the wire form of the event stream — what the service appends
    to its NDJSON logs and what any future push transport would send:
    the tag, then every on-wire field under its own name.  The
    heavyweight payloads stay out (``RunStarted.spec`` lives in the job
    record and ``RunCompleted.result`` in the run record), so event lines
    stay one-screen greppable.
    """
    tag = EVENT_TAGS.get(type(event))
    if tag is None:
        raise TypeError(f"not a run event: {type(event).__name__}")
    wire = {"type": tag}
    wire.update(_wire_items(event))
    return wire
