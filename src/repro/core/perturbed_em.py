"""Perturbed expectation–maximization — the Sec. 8 research perspective.

The paper closes by observing that "the class of iterative analytical
algorithms (e.g., expectation-maximization …) especially fits the
foundations laid down by Chiaroscuro": any algorithm whose iteration is
*assign locally → aggregate sums globally → renormalize* can ride the same
Diptych machinery.  This module makes that concrete for spherical Gaussian
mixtures, on the quality plane (the same plane the paper evaluates k-means
quality with):

* **E step (local)** — each device computes its responsibilities against
  the public, differentially-private component parameters;
* **M step (aggregated)** — the protocol releases, per component, the
  perturbed (Σ r_i, Σ r_i·x_i, Σ r_i·‖x_i−μ‖²) sufficient statistics —
  additive aggregates exactly like the k-means (sum, count) pair, so the
  EESum/noise/decryption pipeline applies verbatim;
* budget strategies and the iteration cap carry over unchanged.

The sensitivity of the responsibility-weighted sums is bounded by the same
``n·max(|d|)`` as k-means (responsibilities sum to 1 per individual), the
count by 1, and the scatter by ``n·max(|d|)²`` — stated in
:func:`em_sensitivities` and used for the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.timeseries import TimeSeriesSet
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import BudgetStrategy

__all__ = ["GaussianMixtureState", "EMTrace", "em_sensitivities", "perturbed_em"]


@dataclass
class GaussianMixtureState:
    """Public parameters of a spherical Gaussian mixture."""

    means: np.ndarray  # (k, n)
    variances: np.ndarray  # (k,)
    weights: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return len(self.means)


@dataclass
class EMTrace:
    """Per-iteration history of a perturbed EM run."""

    log_likelihood: list[float] = field(default_factory=list)
    n_components: list[int] = field(default_factory=list)
    states: list[GaussianMixtureState] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood)


def em_sensitivities(series_length: int, dmin: float, dmax: float) -> dict[str, float]:
    """L1 sensitivities of the per-component EM sufficient statistics.

    One individual contributes responsibilities summing to exactly 1 across
    components, values bounded by ``m = max(|dmin|, |dmax|)`` per dimension:
    weighted-sum ≤ n·m, count ≤ 1, scatter ≤ n·(range)².
    """
    m = max(abs(dmin), abs(dmax))
    spread = dmax - dmin
    return {
        "sum": series_length * m,
        "count": 1.0,
        "scatter": series_length * spread * spread,
    }


def _log_gaussian(series: np.ndarray, state: GaussianMixtureState) -> np.ndarray:
    """Log density of every series under every spherical component: (t, k)."""
    t, n = series.shape
    diff = series[:, None, :] - state.means[None, :, :]
    sq = np.einsum("tkn,tkn->tk", diff, diff)
    var = np.maximum(state.variances, 1e-6)[None, :]
    return (
        -0.5 * sq / var
        - 0.5 * n * np.log(2 * np.pi * var)
        + np.log(np.maximum(state.weights, 1e-12))[None, :]
    )


def perturbed_em(
    dataset: TimeSeriesSet,
    initial: GaussianMixtureState,
    strategy: BudgetStrategy,
    max_iterations: int = 10,
    rng: np.random.Generator | None = None,
) -> EMTrace:
    """Run differentially-private EM with Chiaroscuro's budget machinery.

    Each iteration charges its strategy slice and splits it equally across
    the three aggregate families (sums, counts, scatters); components whose
    perturbed count falls to 10⁻⁴ of the population (or to 1) are lost,
    mirroring the k-means lost-centroid behaviour.  Perturbation is scaled
    against the dataset's effective population (``population_scale``), like
    the k-means plane.
    """
    rng = rng or np.random.default_rng(0)
    series = dataset.values
    scale_factor = float(dataset.population_scale)
    sens = em_sensitivities(dataset.n, dataset.dmin, dataset.dmax)
    accountant = PrivacyAccountant(epsilon_budget=strategy.epsilon)

    state = GaussianMixtureState(
        means=np.array(initial.means, dtype=float),
        variances=np.array(initial.variances, dtype=float),
        weights=np.array(initial.weights, dtype=float),
    )
    trace = EMTrace()

    for _, epsilon_i in accountant.charged_schedule(strategy, max_iterations):
        eps_part = epsilon_i / 3.0  # sums, counts, scatters

        # E step (local per device; vectorized here).
        log_p = _log_gaussian(series, state)
        log_norm = np.logaddexp.reduce(log_p, axis=1, keepdims=True)
        resp = np.exp(log_p - log_norm)  # (t, k)

        # M step aggregates (the quantities Chiaroscuro would release).
        counts = resp.sum(axis=0) * scale_factor
        sums = (resp.T @ series) * scale_factor
        diff = series[:, None, :] - state.means[None, :, :]
        scatter = np.einsum("tk,tkn->k", resp, diff**2) * scale_factor

        counts = counts + rng.laplace(0, sens["count"] / eps_part, size=counts.shape)
        sums = sums + rng.laplace(0, sens["sum"] / eps_part, size=sums.shape)
        scatter = scatter + rng.laplace(0, sens["scatter"] / eps_part, size=scatter.shape)

        alive = counts > max(1e-4 * len(series) * scale_factor, 1.0)
        if not alive.any():
            break
        counts, sums, scatter = counts[alive], sums[alive], scatter[alive]
        means = sums / counts[:, None]
        variances = np.maximum(scatter / (counts * dataset.n), 1e-4)
        weights = np.maximum(counts, 1e-12)
        weights = weights / weights.sum()
        state = GaussianMixtureState(means=means, variances=variances, weights=weights)

        trace.log_likelihood.append(float(log_norm.mean()))
        trace.n_components.append(int(alive.sum()))
        trace.states.append(state)

    return trace
