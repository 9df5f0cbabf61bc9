"""Result containers for Chiaroscuro runs (both planes).

``IterationStats`` captures exactly what the paper plots:

* ``pre_inertia``   — intra-cluster inertia of the partition measured
  against the *unperturbed* means (Figs. 2a/2b "before perturbing");
* ``post_inertia``  — inertia against the perturbed (and smoothed)
  centroids without re-assignment, aberrant centroids removed (Figs. 2e/2f
  "POST");
* ``n_centroids``   — surviving centroids after the lost-mean effect
  (Figs. 2c/2d);
* ``epsilon_spent`` — the iteration's budget slice.

``IterationRecord`` is the one per-iteration record both Algorithm 1 loops
(``iter_perturbed_kmeans``, ``ChiaroscuroRun.run_iter``) yield; planes
forward it unchanged and ``Experiment.run_iter`` turns it into the
``IterationCompleted`` event and the ``Checkpoint``.
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
    centroids: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready dict; exact float round-trip (``float`` ↔ JSON)."""
        return {
            "iteration": self.iteration,
            "pre_inertia": self.pre_inertia,
            "post_inertia": self.post_inertia,
            "n_centroids": self.n_centroids,
            "epsilon_spent": self.epsilon_spent,
            "centroids": self.centroids.tolist(),
        }

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
    """One completed iteration, as yielded by either Algorithm 1 loop.

    ``epsilon_spent_total`` / ``epsilon_remaining`` are read off the loop's
    :class:`~repro.privacy.accountant.PrivacyAccountant` right after the
    iteration's charge (resumed prefix included) — the single ε ledger.
    Telemetry a loop does not produce stays ``None``: ``active_series`` is
    the quality loop's churn-subsample size; ``agreement`` (epidemic
    spread) and ``exchanges_per_node`` are the protocol loop's; ``crypto_ms``
    is the wall time inside crypto batch calls, timed by the
    vectorized-crypto step only.  ``rng_state`` is the bit-generator state
    of the loop's one cross-iteration RNG after this iteration (what a
    checkpoint restores).
    """

    stats: IterationStats
    converged: bool
    epsilon_spent_total: float
    epsilon_remaining: float
    active_series: int | None = None
    agreement: float | None = None
    exchanges_per_node: float | None = None
    crypto_ms: float | None = None
    rng_state: dict | None = None

    @property
    def centroids(self) -> np.ndarray:
        """The released (perturbed, smoothed, lost-cluster-pruned) centroids."""
        return self.stats.centroids


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
