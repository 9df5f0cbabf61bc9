"""Numpy-only goodness-of-fit tests for the suites that check a law, not a
value (imported via pytest's test-dir sys.path insertion; the tier-1 job
installs no scipy).

The KS p-values are the asymptotic Kolmogorov series with Stephens'
small-sample correction of the statistic.
"""

from __future__ import annotations

import numpy as np


def _kolmogorov_pvalue(gap: float, effective: float) -> float:
    lam = (effective + 0.12 + 0.11 / effective) * gap
    if lam < 0.2:  # P(K > 0.2) = 1 to 9 digits; the series needs more terms
        return 1.0
    j = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * lam) ** 2))
    return float(min(max(p, 0.0), 1.0))


def ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS test of ``a`` against ``b``."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.abs(
        np.searchsorted(a, both, side="right") / len(a)
        - np.searchsorted(b, both, side="right") / len(b)
    ).max()
    return _kolmogorov_pvalue(gap, np.sqrt(len(a) * len(b) / (len(a) + len(b))))


def ks_pvalue_cdf(sample: np.ndarray, cdf) -> float:
    """One-sample KS test of ``sample`` against a continuous ``cdf``."""
    values = cdf(np.sort(sample))
    n = len(values)
    gap = max(
        (np.arange(1, n + 1) / n - values).max(), (values - np.arange(n) / n).max()
    )
    return _kolmogorov_pvalue(gap, np.sqrt(n))


def laplace_cdf(scale: float):
    """The CDF of ``Laplace(0, scale)``."""

    def cdf(x: np.ndarray) -> np.ndarray:
        half = 0.5 * np.exp(-np.abs(x) / scale)
        return np.where(x < 0, half, 1.0 - half)

    return cdf
