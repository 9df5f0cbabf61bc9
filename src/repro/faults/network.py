"""Network faults: message loss, duplication and delay at the exchange
boundary.

The paper's epidemic protocols tolerate lossy transports by construction
(push–pull averaging converges under any connected schedule; Sec. 4.2.1's
mass-conservation argument is per *completed* exchange), so these faults
degrade convergence *speed* — the Fig. 3-style quality-vs-messages curve
shifts right — without corrupting mass.  The attack-quality bench
(``benchmarks/bench_fig3_attack_quality.py``) measures exactly that shift.

Verdicts per scheduled exchange, drawn from the injector's named stream:

* ``loss`` — the exchange silently never happens;
* ``delay`` — the exchange completes ``1..max_delay`` cycles late (both
  endpoints apply it then; a delay past the end of the protocol phase
  loses the message);
* ``duplicate`` — the exchange is applied twice in its cycle (EESum
  exchanges are idempotent in mass but not in trajectory, so duplicates
  perturb convergence exactly like a re-sent datagram would).

Loss takes precedence over delay, delay over duplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FaultInjector, register_fault

__all__ = ["NetworkFault"]


@register_fault("network")
@dataclass(frozen=True)
class NetworkFault:
    """Per-exchange loss/duplication/delay probabilities."""

    loss: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 3

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1)")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1 cycle")

    @property
    def extra_batches(self) -> int:
        """Most batches this fault adds to a cycle's delivery: one of
        duplicates, and one per lag of the delayed pairs coming due."""
        return (1 if self.duplicate else 0) + (self.max_delay if self.delay else 0)

    def build(self, rng: np.random.Generator) -> "NetworkInjector":
        return NetworkInjector(self, rng)


class NetworkInjector(FaultInjector):
    """Applies :class:`NetworkFault` verdicts on both planes."""

    def __init__(self, config: NetworkFault, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng

    def transform_pairs(self, iteration: int, left, right):
        cfg = self.config
        n = len(left)
        if n == 0:
            return left, right, [], []
        keep = np.ones(n, dtype=bool)
        delayed = []
        extras = []
        if cfg.loss:
            keep &= self.rng.random(n) >= cfg.loss
        if cfg.delay:
            delay_mask = keep & (self.rng.random(n) < cfg.delay)
            if delay_mask.any():
                indices = np.flatnonzero(delay_mask)
                lags = self.rng.integers(
                    1, cfg.max_delay + 1, size=len(indices)
                )
                for lag in np.unique(lags):
                    chosen = indices[lags == lag]
                    delayed.append((int(lag), left[chosen], right[chosen]))
                keep &= ~delay_mask
        if cfg.duplicate:
            dup_mask = keep & (self.rng.random(n) < cfg.duplicate)
            if dup_mask.any():
                extras.append((left[dup_mask], right[dup_mask]))
        return left[keep], right[keep], extras, delayed
