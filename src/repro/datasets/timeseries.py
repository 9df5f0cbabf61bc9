"""Time-series containers (Sec. 2.1).

A time-series is an ordered vector of reals; a dataset is the ``t × n``
matrix ``S`` of Eq. (1).  :class:`TimeSeriesSet` wraps that matrix with the
metadata Chiaroscuro's privacy arithmetic needs — the value range
``[dmin, dmax]`` (which fixes the DP sensitivity) and an optional
``population_scale`` recording that each stored series stands for ``scale``
identical individuals (the duplicate-and-jitter device of Appendix D, used
here to reach paper-scale populations on one machine; see
``docs/ARCHITECTURE.md``, "Calibration").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..privacy.laplace import sum_sensitivity

__all__ = ["TimeSeriesSet"]


@dataclass
class TimeSeriesSet:
    """A clipped matrix of time-series plus its privacy-relevant metadata."""

    values: np.ndarray
    dmin: float
    dmax: float
    name: str = "timeseries"
    population_scale: int = 1

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a t × n matrix")
        if self.dmax <= self.dmin:
            raise ValueError("need dmin < dmax")
        if self.population_scale < 1:
            raise ValueError("population_scale must be >= 1")
        lo, hi = float(self.values.min(initial=self.dmin)), float(
            self.values.max(initial=self.dmax)
        )
        if lo < self.dmin - 1e-9 or hi > self.dmax + 1e-9:
            raise ValueError(
                f"values outside the declared range [{self.dmin}, {self.dmax}]: "
                f"observed [{lo}, {hi}] — clip at generation time"
            )

    @property
    def t(self) -> int:
        """Number of stored (distinct) series."""
        return self.values.shape[0]

    @property
    def n(self) -> int:
        """Series length."""
        return self.values.shape[1]

    @property
    def population(self) -> int:
        """Effective number of individuals (stored × population_scale)."""
        return self.t * self.population_scale

    @property
    def sum_sensitivity(self) -> float:
        """Definition 4 sensitivity ``n · max(|dmin|, |dmax|)``."""
        return sum_sensitivity(self.n, self.dmin, self.dmax)
