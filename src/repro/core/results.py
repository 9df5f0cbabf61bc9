"""Result containers for Chiaroscuro runs (every plane).

``IterationStats`` captures exactly what the paper plots, over the whole
dataset:

* ``pre_inertia``   — intra-cluster inertia of the partition measured
  against the *unperturbed* means (Figs. 2a/2b "before perturbing");
* ``post_inertia``  — inertia against the perturbed (and smoothed)
  centroids, aberrant centroids removed, *without re-assignment* (Figs.
  2e/2f "POST"): each series stays in its cluster, and a series whose
  cluster was lost is measured against its closest surviving centroid;
* ``n_centroids``   — surviving centroids after the lost-mean effect
  (Figs. 2c/2d);
* ``epsilon_spent`` — the iteration's budget slice.

``IterationRecord`` is the per-iteration record the one Algorithm 1 loop
(``ChiaroscuroRun.run_iter``) yields.  The record
is the event: planes forward it unchanged, ``Experiment.run_iter`` yields it
as is (``repro.api.IterationCompleted`` is this class) and appends the state
log's ``Checkpoint`` from it, and ``event_to_dict`` reads the wire form off
its fields — so a new per-iteration fact is one new field here.  A field
declared with ``metadata={"wire": False}`` stays off the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationStats", "IterationRecord", "ClusteringResult"]


@dataclass
class IterationStats:
    """Everything measured during one perturbed k-means iteration."""

    iteration: int
    pre_inertia: float
    post_inertia: float
    n_centroids: int
    epsilon_spent: float
    # off the wire (k × n floats a line): the run record and checkpoints carry them
    centroids: np.ndarray = field(metadata={"wire": False})

    def to_dict(self) -> dict:
        """JSON-ready dict of every field, in order; exact float round-trip
        (``float`` ↔ JSON)."""
        return {**vars(self), "centroids": self.centroids.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "IterationStats":
        return cls(
            iteration=int(d["iteration"]),
            pre_inertia=float(d["pre_inertia"]),
            post_inertia=float(d["post_inertia"]),
            n_centroids=int(d["n_centroids"]),
            epsilon_spent=float(d["epsilon_spent"]),
            centroids=np.asarray(d["centroids"], dtype=float),
        )


@dataclass
class IterationRecord:
    """One completed iteration, as yielded by the Algorithm 1 loop.

    ``epsilon_spent_total`` / ``epsilon_remaining`` are read off the loop's
    :class:`~repro.privacy.accountant.PrivacyAccountant` right after the
    iteration's charge (resumed prefix included) — the single ε ledger.
    Telemetry a plane does not produce stays ``None``: ``active_series`` is
    the quality plane's churn-subsample size; ``agreement`` (epidemic
    spread) and ``exchanges_per_node`` are the gossiping planes'; ``crypto_ms``
    is the wall time inside crypto batch calls, timed by the
    vectorized-crypto step only.  ``rng_state`` (the ``noise_rng``
    bit-generator state) and ``crypto_state`` (``crypto_rng.getstate()``)
    are the loop's two cross-iteration streams after this iteration: what
    a checkpoint restores.
    """

    stats: IterationStats
    epsilon_spent_total: float
    epsilon_remaining: float
    # the run's outcome, told once by RunCompleted (and kept by the checkpoint)
    converged: bool = field(default=False, metadata={"wire": False})
    active_series: int | None = None
    agreement: float | None = None
    exchanges_per_node: float | None = None
    crypto_ms: float | None = None
    # resume state, two 128-bit integers and 625 Mersenne-Twister words:
    # only a checkpoint has a use for it
    rng_state: dict | None = field(default=None, metadata={"wire": False})
    crypto_state: tuple | None = field(default=None, metadata={"wire": False})

    @property
    def centroids(self) -> np.ndarray:
        """The released (perturbed, smoothed, lost-cluster-pruned) centroids."""
        return self.stats.centroids

    @property
    def iteration(self) -> int:
        return self.stats.iteration

    @property
    def n_centroids(self) -> int:
        return self.stats.n_centroids


@dataclass
class ClusteringResult:
    """A full run: final centroids plus the per-iteration history."""

    centroids: np.ndarray
    history: list[IterationStats] = field(default_factory=list)
    converged: bool = False
    strategy: str = ""
    smoothing: bool = False

    def absorb(self, step: IterationRecord) -> None:
        """Fold one completed iteration into the run's trace."""
        self.history.append(step.stats)
        self.converged = step.converged
        self.centroids = step.centroids

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def pre_inertia_curve(self) -> list[float]:
        """The Fig. 2(a)/(b) series."""
        return [stats.pre_inertia for stats in self.history]

    @property
    def n_centroids_curve(self) -> list[int]:
        """The Fig. 2(c)/(d) series."""
        return [stats.n_centroids for stats in self.history]

    def best_iteration(self) -> IterationStats:
        """The iteration with the lowest pre-perturbation inertia (Fig. 2e/2f)."""
        if not self.history:
            raise ValueError("empty run")
        return min(self.history, key=lambda stats: stats.pre_inertia)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``"G_SMA"`` or ``"UF5"``."""
        return f"{self.strategy}_SMA" if self.smoothing else self.strategy

    def to_dict(self) -> dict:
        """JSON-ready dict (the ``result`` half of a run record)."""
        return {
            "strategy": self.strategy,
            "label": self.label,
            "smoothing": self.smoothing,
            "converged": self.converged,
            "iterations": self.iterations,
            "centroids": np.asarray(self.centroids).tolist(),
            "history": [stats.to_dict() for stats in self.history],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClusteringResult":
        return cls(
            centroids=np.asarray(d["centroids"], dtype=float),
            history=[IterationStats.from_dict(s) for s in d.get("history", [])],
            converged=bool(d.get("converged", False)),
            strategy=d.get("strategy", ""),
            smoothing=bool(d.get("smoothing", False)),
        )
