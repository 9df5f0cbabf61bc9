"""Epidemic noise generation — the participant-side half (Sec. 4.2.2).

Each iteration needs ``k·(n+1)`` Laplace random variables (one per mean
dimension plus one per count), generated so that **no single participant
knows the total noise**.  Participants draw *noise-shares* (Def. 5)
locally, encrypt them, and feed them to the same EESum stream as the means;
the surplus over the assumed ``n_ν`` contributors is cancelled by the
min-identifier correction (Lemma 3 guarantees the surplus itself never
endangers privacy).

This module packages the per-participant arithmetic: scale computation for
an iteration's budget slice, share generation, and the correction proposal
(the computation step packs and encrypts the shares).
"""

from __future__ import annotations

import numpy as np

from ..privacy.laplace import joint_sensitivity
from ..privacy.noise_shares import gen_noise_shares, surplus_correction

__all__ = ["NoisePlan"]


class NoisePlan:
    """Everything one participant needs to perturb one iteration's Diptych.

    ``dimensions`` is ``k·(n+1)``; ``scale`` is the Laplace scale
    ``sensitivity / epsilon`` for the iteration's ε slice, with the joint
    (sum, count) sensitivity.
    """

    def __init__(
        self,
        k: int,
        series_length: int,
        dmin: float,
        dmax: float,
        epsilon: float,
        n_nu: int,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n_nu < 1:
            raise ValueError("n_nu must be >= 1")
        self.k = k
        self.series_length = series_length
        self.dimensions = k * (series_length + 1)
        self.sensitivity = joint_sensitivity(series_length, dmin, dmax)
        self.epsilon = epsilon
        self.scale = self.sensitivity / epsilon
        self.n_nu = n_nu

    def draw_shares(
        self, rng: np.random.Generator, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``count`` participants' share vectors (Def. 5), one row each.

        Every plane's one draw site: a single ``(count, dimensions)``
        Gamma-difference sample, written into ``out`` (and returned) when
        the caller has the buffer.
        """
        return gen_noise_shares(
            count, self.n_nu, self.scale, rng, self.dimensions, out=out
        )

    def correction(self, contributors: int, rng: np.random.Generator) -> np.ndarray:
        """The surplus-correction proposal for an observed contributor count."""
        return surplus_correction(
            contributors, self.n_nu, self.scale, rng, self.dimensions
        )

