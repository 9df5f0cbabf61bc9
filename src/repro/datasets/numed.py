"""NUMED-like synthetic tumor-growth time-series.

The paper's NUMED dataset is itself synthetic: 1.2M series of 20 weekly
tumor-size measurements in ``[0, 50]``, generated from the tumor-growth
dynamics of Claret et al. [7].  We regenerate from the same model class —
the widely used tumor-growth-inhibition (TGI) equation

    ``y(t) = y0 · (exp(-shrink · t) + growth · t)``

(plus a pure-growth Gompertz-style family for untreated profiles), with
parameters drawn per patient from a set of typical-response archetypes:
responder, stable disease, progressive disease, relapse-after-response.
Cluster sizes are kept *near-uniform*, which is the property the paper uses
to explain why NUMED barely benefits from SMA smoothing (no small,
noise-fragile clusters).
"""

from __future__ import annotations

import numpy as np

from .timeseries import TimeSeriesSet

__all__ = ["generate_numed", "numed_profile"]

_WEEKS = np.arange(20, dtype=float)
_DMIN, _DMAX = 0.0, 50.0


def numed_profile(baseline: float, shrink: float, growth: float) -> np.ndarray:
    """Claret-style TGI curve ``y0·(exp(−shrink·t) + growth·t)`` over the
    20 weekly measures."""
    return baseline * (np.exp(-shrink * _WEEKS) + growth * _WEEKS)


def _archetype_params(rng: np.random.Generator, archetype: int) -> tuple[float, float, float]:
    """Per-patient parameters for the four clinical archetypes."""
    if archetype == 0:  # strong responder: fast shrink, negligible regrowth
        return rng.uniform(25, 45), rng.uniform(0.25, 0.5), rng.uniform(0.0, 0.004)
    if archetype == 1:  # stable disease: slow shrink balanced by slow growth
        return rng.uniform(15, 35), rng.uniform(0.04, 0.10), rng.uniform(0.004, 0.010)
    if archetype == 2:  # progressive disease: growth dominates
        return rng.uniform(10, 25), rng.uniform(0.0, 0.03), rng.uniform(0.02, 0.05)
    # archetype 3 — relapse: strong initial response then steep regrowth
    return rng.uniform(20, 40), rng.uniform(0.3, 0.6), rng.uniform(0.012, 0.03)


def generate_numed(
    n_series: int = 24_000,
    population_scale: int = 50,
    noise_sd: float = 0.8,
    seed: int | np.random.Generator = 0,
) -> TimeSeriesSet:
    """Generate a NUMED-like dataset of 20-week tumor-size series.

    Archetypes are drawn *uniformly* (equally distributed clusters, per the
    paper's description), measurement noise is Gaussian, and values are
    clipped to ``[0, 50]`` (sensitivity ``20 · 50 = 1000``).  The default
    24K distinct series × ``population_scale=50`` matches the paper's 1.2M
    effective patients.
    """
    rng = np.random.default_rng(seed)
    archetypes = rng.integers(0, 4, size=n_series)
    values = np.empty((n_series, len(_WEEKS)))
    for idx, archetype in enumerate(archetypes):
        baseline, shrink, growth = _archetype_params(rng, int(archetype))
        curve = numed_profile(baseline, shrink, growth)
        values[idx] = curve + rng.normal(0.0, noise_sd, size=len(_WEEKS))
    np.clip(values, _DMIN, _DMAX, out=values)
    return TimeSeriesSet(
        values=values,
        dmin=_DMIN,
        dmax=_DMAX,
        name="numed-like",
        population_scale=population_scale,
    )
