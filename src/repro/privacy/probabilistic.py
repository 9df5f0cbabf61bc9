"""(ε, δ)-probabilistic differential privacy arithmetic (Appendix B).

Gossip aggregation is approximate, so the distributed Laplace noise carries
a relative error ``e_N`` with ``|e_N| ≤ e_max`` (probability ≥ 1 − ι).  The
appendix shows how to keep the DP guarantee anyway:

* **Lemma 2** — inflate the scale to ``λ = (1+e_max)·max(|d|)/ε`` and the
  noise by ``1 + e_max/(1−e_max)``; the perturbed sum then satisfies
  (ε, δ)-probabilistic DP with ``δ = (1−ι)²``.
* **Theorem 3** (Newscast convergence, from Kowalczyk & Vlassis) — with
  probability ``1−ι``, ``n_e = ⌈0.581·(ln n_p + 2·ln s + 2·ln 1/e_max +
  ln 1/ι)⌉`` exchanges per participant bound the absolute error by
  ``e_max``.
* **δ_atom** — a run releases ``n_it^max · 2n`` gossip aggregates (the sum
  and noise vectors, ``n`` values each, per iteration); each must hold with
  probability ``δ_atom = δ^(1/(n_it^max · 2n))`` for the whole run to hold
  with probability δ.

The paper's worked example — ``δ = 0.995``, ``e_max = 10⁻¹²``, ``s² = 1``,
``n_p = 10⁶``, ``n_it^max = 10``, ``n = 24`` gives ``δ_atom = ⁴⁸⁰√0.995``
and ``n_e = 47`` — is pinned by a unit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "newscast_exchanges",
    "delta_atom",
    "lemma2_scale",
    "lemma2_noise_inflation",
    "lemma2_perturb",
    "GossipPrivacyPlan",
]


def newscast_exchanges(
    population: int, e_max: float, iota: float, variance: float = 1.0
) -> int:
    """Theorem 3: exchanges per participant for error ≤ ``e_max`` w.p. ``1 − ι``.

    ``n_e = ⌈0.581·(ln n_p + 2·ln s + 2·ln(1/e_max) + ln(1/ι))⌉`` where
    ``s² = variance`` is the data variance (natural log, as in the source
    theorem [25]).
    """
    if population < 2:
        raise ValueError("population must be >= 2")
    if not 0 < e_max:
        raise ValueError("e_max must be positive")
    if not 0 < iota < 1:
        raise ValueError("iota must be in (0, 1)")
    if variance <= 0:
        raise ValueError("variance must be positive")
    s = math.sqrt(variance)
    value = 0.581 * (
        math.log(population)
        + 2.0 * math.log(s)
        + 2.0 * math.log(1.0 / e_max)
        + math.log(1.0 / iota)
    )
    return max(1, math.ceil(value))


def delta_atom(delta: float, max_iterations: int, series_length: int) -> float:
    """Per-value probability so the whole run satisfies δ.

    A run releases ``n_it^max · 2n`` gossip aggregates (sum + noise vectors
    of length ``n``, per iteration — the appendix's ``(n_it^max · 2n)``-th
    root); each must hold with ``δ_atom = δ^(1/(n_it^max·2n))``.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    exponent = max_iterations * 2 * series_length
    return delta ** (1.0 / exponent)


def lemma2_scale(sensitivity_per_value: float, epsilon: float, e_max: float) -> float:
    """Lemma 2 inflated Laplace scale ``λ = (1+e_max)·sensitivity/ε``."""
    if not 0 <= e_max < 1:
        raise ValueError("e_max must be in [0, 1)")
    return (1.0 + e_max) * sensitivity_per_value / epsilon


def lemma2_noise_inflation(e_max: float) -> float:
    """Lemma 2 compensation factor ``1 + e_max/(1−e_max)`` applied to the noise."""
    if not 0 <= e_max < 1:
        raise ValueError("e_max must be in [0, 1)")
    return 1.0 + e_max / (1.0 - e_max)


def lemma2_perturb(
    values: np.ndarray,
    sensitivity: float,
    epsilon: float,
    e_max: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A Laplace release of ``values`` as the epidemic protocol delivers it.

    With ``e_max > 0`` each value is first multiplied by ``1 + e``,
    ``e ~ U(−e_max, e_max)`` (the epidemic approximation error), then the
    noise is drawn at :func:`lemma2_scale` and inflated by
    :func:`lemma2_noise_inflation`.  At ``e_max = 0`` nothing is inflated and
    no error is drawn: the release is ``values + Laplace(sensitivity / ε)``.
    """
    if e_max > 0:
        values = values * (1.0 + rng.uniform(-e_max, e_max, size=values.shape))
    noise = rng.laplace(0.0, lemma2_scale(sensitivity, epsilon, e_max), size=values.shape)
    return values + lemma2_noise_inflation(e_max) * noise


@dataclass(frozen=True)
class GossipPrivacyPlan:
    """End-to-end plan tying δ, e_max and the exchange count together.

    Given the target global δ and the protocol shape, this derives the
    δ_atom, the per-aggregate failure budget ι (δ_atom = (1−ι)², Lemma 2),
    and the Newscast exchange count n_e — i.e. everything a bootstrap
    server must publish (footnote 4).
    """

    delta: float
    e_max: float
    population: int
    max_iterations: int
    series_length: int

    @property
    def delta_atom(self) -> float:
        return delta_atom(self.delta, self.max_iterations, self.series_length)

    @property
    def iota(self) -> float:
        """Per-aggregate failure probability ``ι = 1 − δ_atom``.

        This matches the paper's own worked example (δ_atom ≈ 1 − 10⁻⁵ →
        n_e = 47); the stricter Lemma-2 reading ``δ_atom = (1 − ι)²`` would
        take ``ι = 1 − √δ_atom`` and cost one extra exchange (:attr:`iota_strict`).
        """
        return 1.0 - self.delta_atom

    @property
    def iota_strict(self) -> float:
        """The Lemma-2-exact per-aggregate failure probability ``1 − √δ_atom``."""
        return 1.0 - math.sqrt(self.delta_atom)

    @property
    def exchanges(self) -> int:
        """Newscast exchanges per participant per EESum execution."""
        return newscast_exchanges(self.population, self.e_max, self.iota)

    @property
    def noise_inflation(self) -> float:
        return lemma2_noise_inflation(self.e_max)
