"""Colluding coalitions: an empirical audit of the Appendix B.3 bounds.

A coalition controller pools the key-shares and noise-shares of ``c``
compromised participants and attempts what the appendix says it can and
cannot do:

* **key leg** — with the object plane's genuine threshold key material the
  controller encrypts a canary, computes the coalition's ``c`` partial
  decryptions, and attempts combination.  For ``c >= τ`` this is the
  regular combination; for ``c < τ`` the controller *bypasses* the honest
  API's share-count guard and interpolates with what it has (the real
  attack), recovering garbage — fewer than ``τ`` points of a degree-τ−1
  polynomial carry no information about its constant term.  The empirical
  verdict must equal :attr:`CollusionAnalysis.key_compromised`; a mismatch
  aborts the run (it would mean the crypto contradicts the analysis).
* **noise leg** — reported analytically: the fraction of the total Laplace
  noise outside the coalition decays linearly (App. B.3), quantified by
  :class:`~repro.privacy.collusion.CollusionAnalysis`.

On the vectorized plane there is no key material to steal (the
mock-homomorphic substrate), so the audit is analytical-only.

The audit emits one ``coalition-audit`` :class:`FaultDetected` event per
run carrying both the empirical and the analytical verdicts — collusion is
not detectable by honest participants (colluders follow the protocol), so
the event models an *oracle* audit for the bench, not a protocol defense.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .. import lazy
from ..privacy.collusion import CollusionAnalysis
from .base import FaultInjector, register_fault

__all__ = ["CollusionFault"]

# The key leg's ciphertext machinery (repro.lazy): only an object-plane run
# holds key material, so a faulted array spec imports none of it.
encrypt = lazy.defer(__name__, "..crypto.damgard_jurik", "encrypt")
partial_decrypt = lazy.defer(__name__, "..crypto.threshold", "partial_decrypt")
combine_subset = lazy.defer(__name__, "..crypto.threshold", "combine_subset")


@register_fault("collusion")
@dataclass(frozen=True)
class CollusionFault:
    """A coalition of ``collusions`` devices (or ``fraction`` of the
    population) pooling their shares."""

    collusions: int = 0
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.collusions < 0:
            raise ValueError("collusions must be >= 0")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.collusions == 0 and self.fraction == 0.0:
            raise ValueError("set a coalition size (collusions or fraction)")

    def build(self, rng: np.random.Generator) -> "CollusionInjector":
        return CollusionInjector(self, rng)


class CollusionInjector(FaultInjector):
    """Runs the coalition audit once, on the first computed output."""

    def __init__(self, config: CollusionFault, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.binding = None
        self.coalition = 0
        self._audited = False

    def bind(self, binding, plan) -> None:
        self.binding = binding
        requested = self.config.collusions or round(
            self.config.fraction * binding.population
        )
        self.coalition = min(max(0, int(requested)), binding.population)

    def observe_output(self, output, iteration: int, plan):
        if self._audited:
            return output
        self._audited = True
        binding = self.binding
        analysis = CollusionAnalysis(
            population=binding.population,
            n_shares=binding.population,
            threshold=binding.threshold,
            collusions=self.coalition,
        )
        empirical = None
        if binding.keypair is not None:
            empirical = self._attempt_decryption(binding.keypair)
        plan.detected(
            iteration,
            "collusion",
            "coalition-audit",
            tuple(range(min(self.coalition, 16))),
            {
                "collusions": self.coalition,
                "threshold": binding.threshold,
                "population": binding.population,
                "key_compromised": analysis.key_compromised,
                "missing_key_shares": analysis.missing_key_shares,
                "unknown_noise_fraction": analysis.unknown_noise_fraction,
                "residual_noise_shape": analysis.residual_noise_shape(),
                "empirical_decryption": empirical,
            },
        )
        if empirical is not None and empirical != analysis.key_compromised:
            plan.abort(
                "collusion",
                iteration,
                f"empirical coalition decryption ({empirical}) contradicts "
                f"the App. B.3 bound (key_compromised="
                f"{analysis.key_compromised}) at c={self.coalition}, "
                f"tau={binding.threshold}",
            )
        return output

    def _attempt_decryption(self, keypair) -> bool:
        """The controller's best decryption attempt with ``c`` shares."""
        context = keypair.context
        canary = 1 + int(self.rng.integers(0, 1 << 20))
        crypto_rng = random.Random(int(self.rng.integers(0, 1 << 62)))
        ciphertext = encrypt(keypair.public, canary, rng=crypto_rng)
        # Bypass the honest API's share-count guard: interpolate with the
        # coalition's first τ points (all of them below τ), exactly as an
        # attacker would.
        partials = {
            share.index: [partial_decrypt(context, share, ciphertext)]
            for share in keypair.shares[: min(self.coalition, context.threshold)]
        }
        if not partials:
            return False
        try:
            (recovered,) = combine_subset(context, partials)
        except ValueError:
            return False
        return recovered == canary
