"""Correlated churn storms — burst outages over both gossip planes.

Sec. 6.1.5's churn model draws disconnections independently per node; a
:class:`BurstChurnProcess` generalizes it to storms that take a
*correlated* set offline for several consecutive cycles (a cell-tower
outage, a power cut).  The injector advances one storm process per run on
its named stream and suppresses every exchange touching the affected set,
on top of whatever baseline churn the run already models.

A storm is environmental, not adversarial, but it is still *observable*:
the ``availability-monitor`` detector emits one event per storm onset so
benches and the service can correlate quality dips with outages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FaultInjector, register_fault

__all__ = ["ChurnStormFault"]


class BurstChurnProcess:
    """Correlated churn storms — bursts knocking out a whole node set at once.

    The gossip engines draw disconnections i.i.d. per node per cycle; real
    deployments also see *correlated* outages (a cell tower, a power cut, a
    flash crowd) where a sizeable fraction vanishes together and stays gone
    for a while.  This process generalizes the Sec. 6.1.5 model: each cycle
    a storm starts with probability ``rate``; it takes a uniformly drawn
    ``magnitude`` fraction of the population offline for ``duration``
    consecutive cycles (the same set — that is the correlation).

    The process is stateful (a storm persists across :meth:`advance` calls)
    and consumes only the generator it is handed, so a caller owning a named
    RNG stream gets deterministic storms.
    """

    def __init__(self, rate: float, magnitude: float, duration: int) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not 0.0 < magnitude <= 1.0:
            raise ValueError("magnitude must be in (0, 1]")
        if duration < 1:
            raise ValueError("duration must be >= 1 cycle")
        self.rate = float(rate)
        self.magnitude = float(magnitude)
        self.duration = int(duration)
        self._remaining = 0
        self._offline: np.ndarray | None = None

    @property
    def storming(self) -> bool:
        """Whether the last :meth:`advance` fell inside a storm."""
        return self._offline is not None

    def advance(self, population: int, rng: np.random.Generator) -> np.ndarray:
        """One cycle tick; returns the boolean offline mask for this cycle."""
        if self._offline is not None and self._remaining > 0:
            self._remaining -= 1
            return self._offline
        self._offline = None
        if self.rate and rng.random() < self.rate:
            size = min(population, max(1, int(round(self.magnitude * population))))
            offline = np.zeros(population, dtype=bool)
            offline[rng.choice(population, size=size, replace=False)] = True
            self._offline = offline
            self._remaining = self.duration - 1
            return offline
        return np.zeros(population, dtype=bool)


@register_fault("churn-storm")
@dataclass(frozen=True)
class ChurnStormFault:
    """Storm process knobs: onset ``rate`` per cycle, offline ``magnitude``
    fraction, ``duration`` in cycles."""

    rate: float = 0.05
    magnitude: float = 0.2
    duration: int = 5

    def __post_init__(self) -> None:
        # Range validation lives in BurstChurnProcess; building one here
        # surfaces bad spec params at validation time, not mid-run.
        BurstChurnProcess(self.rate, self.magnitude, self.duration)

    def build(self, rng: np.random.Generator) -> "ChurnStormInjector":
        return ChurnStormInjector(self, rng)


class ChurnStormInjector(FaultInjector):
    """Applies one storm process across all of a run's gossip cycles."""

    def __init__(self, config: ChurnStormFault, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.plan = None
        self.population = 0
        self.process: BurstChurnProcess | None = None
        self._offline = np.empty(0, dtype=bool)
        self._any_offline = False
        self._was_storming = False
        self._storms = 0

    def bind(self, binding, plan) -> None:
        self.plan = plan
        self.population = binding.population
        self.process = BurstChurnProcess(
            self.config.rate, self.config.magnitude, self.config.duration
        )
        self._offline = np.zeros(self.population, dtype=bool)
        self._any_offline = False

    def begin_cycle(self, engine, protocols: tuple, iteration: int) -> None:
        self._offline = self.process.advance(self.population, self.rng)
        self._any_offline = bool(self._offline.any())
        storming = self.process.storming
        if storming and not self._was_storming:
            self._storms += 1
            affected = np.flatnonzero(self._offline)
            self.plan.detected(
                iteration,
                "churn-storm",
                "availability-monitor",
                affected[:32],
                {
                    "storm": self._storms,
                    "offline": int(len(affected)),
                    "duration_cycles": self.config.duration,
                },
            )
        self._was_storming = storming

    def transform_pairs(self, iteration: int, left, right):
        if not self._any_offline or not len(left):
            return left, right, [], []
        keep = ~(self._offline[left] | self._offline[right])
        return left[keep], right[keep], [], []
