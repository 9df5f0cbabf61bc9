"""Perturbed centralized k-means — the paper's quality-evaluation plane.

Sec. 6.1 is explicit that clustering *quality* was evaluated "by running a
perturbed centralized k-means implementation embedding our budget
concentration strategies and means smoothing technique": the full gossip
machinery changes latency and cost but, by App. B, delivers the same
perturbed aggregates up to a compensated approximation error.  This module
is that implementation, vectorized with numpy so paper-scale populations
fit on one machine.

Per iteration ``i`` (1-indexed, budget ``ε_i`` from the strategy):

1. optional per-iteration churn subsample (Sec. 6.1.5);
2. assignment of every series to the closest current centroid;
3. per-cluster sums and counts, scaled by the dataset's
   ``population_scale`` (each stored series stands for ``scale``
   individuals — the App. D duplication device);
4. *pre-perturbation* inertia of the partition against the true means;
5. Laplace perturbation of sums and counts at scale
   ``sensitivity / ε_i`` (optionally Lemma-2 inflated, optionally with a
   simulated gossip relative error);
6. perturbed means = perturbed sums / perturbed counts; clusters whose
   perturbed count is non-positive (or that were empty) are *lost*
   (footnote 8's aberrant means);
7. optional circular SMA smoothing (Sec. 5.2);
8. *post-perturbation* inertia against the released centroids without
   re-assignment (Figs. 2e/2f);
9. convergence test on the centroid displacement, plus the ``n_it^max``
   cap and the strategy's own exhaustion bound (Sec. 4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..clustering.distance import assign_to_closest
from ..clustering.inertia import intra_inertia
from ..clustering.kmeans import compress_labels, compute_means
from ..datasets.timeseries import TimeSeriesSet
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import BudgetStrategy
from ..privacy.laplace import sum_sensitivity
from ..privacy.probabilistic import lemma2_noise_inflation, lemma2_scale
from .results import ClusteringResult, IterationRecord, IterationStats
from .smoothing import sma_smooth, smoothing_plan

__all__ = ["PerturbationOptions", "iter_perturbed_kmeans", "perturbed_kmeans"]


@dataclass(frozen=True)
class PerturbationOptions:
    """Knobs of the perturbation model (defaults follow the paper).

    ``sensitivity_mode``:

    * ``"per-aggregate"`` (default) — the literal Def. 4 reading: the sum
      vector is perturbed at scale ``n·max(|d|)/ε_i`` and the count, being
      "simply a sum of 1's" with sensitivity 1, at scale ``1/ε_i``.  This
      is the calibration that reproduces the paper's Fig. 2 shapes (means
      drift and are lost through assignment starvation, not count flips);
      its accounting caveat — counts formally cost a second ε_i unless one
      argues a joint release — is documented in DESIGN.md;
    * ``"joint"``  — one conservative Laplace scale from the joint L1
      sensitivity ``n·max(|d|) + 1`` for both sums and counts;
    * ``"split"``  — ε_i halved between sums (sensitivity ``n·max(|d|)``)
      and counts (sensitivity 1).

    ``gossip_e_max`` — when positive, the Lemma 2 machinery kicks in: the
    scale is inflated by ``(1 + e_max)``, the noise by
    ``1 + e_max/(1−e_max)``, and each aggregate is additionally multiplied
    by a uniform relative error in ``[−e_max, +e_max]`` to emulate the
    epidemic approximation.
    """

    sensitivity_mode: str = "per-aggregate"
    gossip_e_max: float = 0.0

    def __post_init__(self) -> None:
        if self.sensitivity_mode not in ("per-aggregate", "joint", "split"):
            raise ValueError(
                "sensitivity_mode must be 'per-aggregate', 'joint' or 'split'"
            )
        if not 0 <= self.gossip_e_max < 1:
            raise ValueError("gossip_e_max must be in [0, 1)")


def _noise_scales(
    dataset: TimeSeriesSet, epsilon: float, options: PerturbationOptions
) -> tuple[float, float]:
    """Laplace scales (sum_scale, count_scale) for one iteration's budget."""
    sum_sens = sum_sensitivity(dataset.n, dataset.dmin, dataset.dmax)
    if options.sensitivity_mode == "joint":
        sens = sum_sens + 1.0
        if options.gossip_e_max > 0:
            scale = lemma2_scale(sens, epsilon, options.gossip_e_max)
        else:
            scale = sens / epsilon
        return scale, scale
    if options.sensitivity_mode == "per-aggregate":
        sum_eps = count_eps = epsilon
    else:  # split: half the budget to sums, half to counts
        sum_eps = count_eps = epsilon / 2.0
    if options.gossip_e_max > 0:
        return (
            lemma2_scale(sum_sens, sum_eps, options.gossip_e_max),
            lemma2_scale(1.0, count_eps, options.gossip_e_max),
        )
    return sum_sens / sum_eps, 1.0 / count_eps


def _gossip_error(
    values: np.ndarray, e_max: float, rng: np.random.Generator
) -> np.ndarray:
    """Multiply by (1 + e) with e ~ U(−e_max, e_max): the epidemic error model."""
    if e_max <= 0:
        return values
    return values * (1.0 + rng.uniform(-e_max, e_max, size=values.shape))


def iter_perturbed_kmeans(
    dataset: TimeSeriesSet,
    initial_centroids: np.ndarray,
    strategy: BudgetStrategy,
    max_iterations: int = 10,
    theta: float = 0.0,
    smoothing_window: int | None = None,
    options: PerturbationOptions | None = None,
    churn: float = 0.0,
    rng: np.random.Generator | None = None,
    start_iteration: int = 1,
) -> Iterator[IterationRecord]:
    """The perturbed k-means loop as a generator of per-iteration steps.

    This is the streaming primitive underneath :func:`perturbed_kmeans`
    (and the ``repro.api`` quality plane): one :class:`IterationRecord` per
    completed iteration, so callers can report progress, stop early, or
    checkpoint between iterations.  ``active_series`` counts the series
    that survived the churn subsample (the whole dataset when churn is 0).
    The generator returns (without a final step) when the budget is
    exhausted or every cluster is lost.

    ``start_iteration`` supports checkpoint resume: budget charges for
    iterations ``1 .. start_iteration-1`` are replayed (deterministic, no
    RNG consumption), and ``initial_centroids``/``rng`` are expected to
    carry the checkpointed state.  A resumed run draws exactly the same
    randomness as an uninterrupted one from that point on.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    options = options or PerturbationOptions()
    series_all = dataset.values
    scale_factor = float(dataset.population_scale)

    smoothing_window, do_smooth = smoothing_plan(dataset.n, smoothing_window)

    accountant = PrivacyAccountant(epsilon_budget=strategy.epsilon)
    inflation = (
        lemma2_noise_inflation(options.gossip_e_max) if options.gossip_e_max > 0 else 1.0
    )

    centroids = np.asarray(initial_centroids, dtype=float).copy()

    for iteration, epsilon_i in accountant.charged_schedule(
        strategy, max_iterations, start_iteration
    ):
        if churn > 0:
            keep = rng.random(len(series_all)) >= churn
            if not keep.any():
                keep[rng.integers(len(series_all))] = True
            series = series_all[keep]
        else:
            series = series_all

        labels = assign_to_closest(series, centroids)
        k = len(centroids)
        means, counts = compute_means(series, labels, k)
        sums = np.nan_to_num(means, nan=0.0) * counts[:, None]
        sums *= scale_factor
        counts = counts * scale_factor

        alive_true = counts > 0
        pre_inertia = intra_inertia(
            series, means[alive_true], compress_labels(labels, alive_true)
        )

        sum_scale, count_scale = _noise_scales(dataset, epsilon_i, options)
        noisy_sums = _gossip_error(sums, options.gossip_e_max, rng) + (
            inflation * rng.laplace(0.0, sum_scale, size=sums.shape)
        )
        noisy_counts = _gossip_error(counts, options.gossip_e_max, rng) + (
            inflation * rng.laplace(0.0, count_scale, size=counts.shape)
        )

        survive = alive_true & (noisy_counts > 0)
        if not survive.any():
            return
        with np.errstate(invalid="ignore", divide="ignore"):
            perturbed = noisy_sums[survive] / noisy_counts[survive, None]
        if do_smooth:
            perturbed = sma_smooth(perturbed, smoothing_window)

        post_labels = assign_to_closest(series, perturbed)  # for POST bookkeeping
        post_inertia = intra_inertia(series, perturbed, _restrict_labels(labels, survive, post_labels))

        stats = IterationStats(
            iteration=iteration,
            pre_inertia=float(pre_inertia),
            post_inertia=float(post_inertia),
            n_centroids=int(survive.sum()),
            epsilon_spent=epsilon_i,
            centroids=perturbed,
        )

        converged = False
        if theta > 0 and perturbed.shape == centroids.shape:
            displacement = float(np.mean((perturbed - centroids) ** 2))
            converged = displacement < theta

        yield IterationRecord(
            stats=stats,
            converged=converged,
            epsilon_spent_total=accountant.spent,
            epsilon_remaining=accountant.remaining,
            active_series=len(series),
            rng_state=rng.bit_generator.state,
        )
        if converged:
            return
        centroids = perturbed


def perturbed_kmeans(
    dataset: TimeSeriesSet,
    initial_centroids: np.ndarray,
    strategy: BudgetStrategy,
    max_iterations: int = 10,
    theta: float = 0.0,
    smoothing_window: int | None = None,
    options: PerturbationOptions | None = None,
    churn: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ClusteringResult:
    """Run the perturbed k-means and return the full iteration trace.

    ``smoothing_window`` defaults to 20 % of the series length (Table 2),
    rounded down to even; pass ``0`` to disable smoothing.  ``theta = 0``
    disables the convergence test so traces always span
    ``min(max_iterations, strategy bound)`` iterations — the paper's Fig. 2
    setting.

    A thin driver over :func:`iter_perturbed_kmeans`; use the generator
    directly for streaming progress, early stopping, or checkpointing.
    """
    result = ClusteringResult(
        centroids=np.asarray(initial_centroids, dtype=float).copy(),
        strategy=strategy.name,
        smoothing=smoothing_plan(dataset.n, smoothing_window)[1],
    )
    for step in iter_perturbed_kmeans(
        dataset,
        result.centroids,
        strategy,
        max_iterations=max_iterations,
        theta=theta,
        smoothing_window=smoothing_window,
        options=options,
        churn=churn,
        rng=rng,
    ):
        result.absorb(step)
    return result


def _restrict_labels(
    labels: np.ndarray, survive: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Labels against the surviving centroids, *without* re-assignment.

    Series whose cluster survived keep their membership (remapped to the
    surviving index space); series whose cluster was lost are measured
    against their closest surviving centroid (they are exactly the
    "ignored de facto" series of footnote 8 — ``fallback`` carries the
    closest-surviving assignment for them).
    """
    mapping = np.cumsum(survive) - 1
    kept = survive[labels]
    restricted = np.where(kept, mapping[labels], fallback)
    return restricted
