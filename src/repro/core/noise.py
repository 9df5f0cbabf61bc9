"""The release plan: what a run releases, at what scale and precision.

Each iteration needs ``k·(n+1)`` Laplace random variables (one per mean
dimension plus one per count), generated so that **no single participant
knows the total noise**.  Participants draw *noise-shares* (Def. 5)
locally, encrypt them, and feed them to the same EESum stream as the means;
the surplus over the assumed ``n_ν`` contributors is cancelled by the
min-identifier correction (Lemma 3 guarantees the surplus itself never
endangers privacy).

:class:`NoisePlan` makes every decision that release depends on, once, from
public parameters: the Laplace scale of an ε slice, the fixed-point grid of
every plane, the worst slice's slot bound and the packed codec sized from
it — plus share generation and the correction proposal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .. import lazy
from ..privacy.laplace import joint_sensitivity, laplace_scale
from ..privacy.noise_shares import gen_noise_shares, surplus_correction

if TYPE_CHECKING:
    from ..crypto.keys import PublicKey

__all__ = ["NoisePlan"]

# The real-ciphertext planes' codec (repro.lazy): the mock loop imports none.
PackedCodec = lazy.defer(__name__, "..crypto.encoding", "PackedCodec")


@dataclass(frozen=True)
class NoisePlan:
    """Everything a run needs to perturb, quantize and pack its Diptych.

    ``scale`` is the Laplace scale ``sensitivity / epsilon`` of the ε slice,
    with the joint (sum, count) sensitivity.  The run builds one plan; an
    iteration's is ``dataclasses.replace(plan, k=…, epsilon=ε_i)``.
    ``slices`` is the run's ε schedule (default: ``epsilon`` alone), so
    every iteration's plan sizes the same codec, at the worst slice.
    """

    #: Width f of the fixed-point grid ``2^-f`` every plane quantizes on.
    fractional_bits: ClassVar[int] = 24

    k: int
    series_length: int
    dmin: float
    dmax: float
    epsilon: float
    n_nu: int
    slices: tuple[float, ...] = ()
    scale: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_nu < 1:
            raise ValueError("n_nu must be >= 1")
        scale = laplace_scale(self.sensitivity, self.epsilon)  # refuses ε ≤ 0
        object.__setattr__(self, "scale", scale)

    @property
    def dimensions(self) -> int:
        """Released values per iteration: ``k`` sums of ``n`` and ``k`` counts."""
        return self.k * (self.series_length + 1)

    @property
    def sensitivity(self) -> float:
        """Sensitivity of one (sum, count) release (``privacy.laplace``)."""
        return joint_sensitivity(self.series_length, self.dmin, self.dmax)

    @property
    def max_slot_value(self) -> float:
        """Largest magnitude one packed slot must hold: a data value plus a
        noise share, at the worst slice's scale and an exponential-tail
        quantile (P[|share| > 60λ] ~ e⁻⁶⁰ per element: never in practice).
        The scale grows without bound as slices shrink, so no fixed
        multiple of the sensitivity would do."""
        worst = min(self.slices, default=self.epsilon)
        return max(abs(self.dmin), abs(self.dmax)) + 60.0 * self.sensitivity / worst

    def codec(self, public: PublicKey, exchanges: int, terms: int) -> PackedCodec:
        """The run's ciphertext layout on the plan's grid, for ``2^exchanges``
        of delayed-division scaling over ``terms`` summed vectors (see
        :meth:`PackedCodec.plan`: ``ValueError`` when no slot fits)."""
        return PackedCodec.plan(
            public, self.fractional_bits, self.max_slot_value, exchanges, terms
        )

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
