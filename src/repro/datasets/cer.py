"""CER-like synthetic electricity-consumption time-series.

The paper's real dataset — the Irish CER smart-meter trial [16] — is
access-restricted; we generate a synthetic stand-in with the same shape
statistics the experiments depend on (``docs/ARCHITECTURE.md``,
"Calibration"):

* daily load curves of 24 hourly values in ``[0, 80]`` (kWh-scale), so the
  Definition 4 sensitivity is the paper's ``24 · 80 = 1920``;
* a *strongly concentrated* population: most households follow a handful of
  archetype profiles (night base load, morning peak, evening peak,
  business-hours plateau, night-storage heating, ...), which is exactly the
  property the paper invokes to explain CER's behaviour under churn and
  smoothing ("strongly concentrated CER time-series");
* a heavy-tailed mixture: archetype popularity follows a geometric decay, so
  there are small clusters that are noise-sensitive.

The module also exports :func:`courbogen_like_centroids`, the substitution
for EDF's proprietary CourboGen generator used to seed initial centroids
without touching raw series.
"""

from __future__ import annotations

import numpy as np

from .timeseries import TimeSeriesSet

__all__ = ["ARCHETYPE_BUILDERS", "generate_cer", "courbogen_like_centroids"]

_HOURS = np.arange(24)
_DMIN, _DMAX = 0.0, 80.0


def _bump(center: float, width: float, height: float) -> np.ndarray:
    """A circular Gaussian bump over the 24 hours."""
    delta = np.minimum(np.abs(_HOURS - center), 24 - np.abs(_HOURS - center))
    return height * np.exp(-0.5 * (delta / width) ** 2)


def _profile_flat_night(rng: np.random.Generator) -> np.ndarray:
    """Low base load with a mild evening bump (small flat / absent household)."""
    base = rng.uniform(1.0, 4.0)
    return base + _bump(20, 2.5, rng.uniform(2.0, 6.0))


def _profile_morning_evening(rng: np.random.Generator) -> np.ndarray:
    """Classic commuter household: morning and evening peaks."""
    base = rng.uniform(2.0, 6.0)
    return (
        base
        + _bump(7.5, 1.5, rng.uniform(8.0, 18.0))
        + _bump(19, 2.0, rng.uniform(12.0, 25.0))
    )


def _profile_evening_heavy(rng: np.random.Generator) -> np.ndarray:
    """Evening-dominated usage (electric cooking / entertainment)."""
    base = rng.uniform(2.0, 5.0)
    return base + _bump(20.5, 3.0, rng.uniform(20.0, 38.0))


def _profile_daytime_home(rng: np.random.Generator) -> np.ndarray:
    """At-home-all-day profile: broad midday plateau."""
    base = rng.uniform(3.0, 7.0)
    return base + _bump(13, 4.5, rng.uniform(10.0, 20.0))


def _profile_business(rng: np.random.Generator) -> np.ndarray:
    """Small business: 9-to-5 plateau, low nights and early mornings."""
    base = rng.uniform(1.0, 3.0)
    plateau = np.where((_HOURS >= 8) & (_HOURS <= 17), rng.uniform(25.0, 45.0), 0.0)
    return base + plateau + _bump(12.5, 1.5, rng.uniform(3.0, 8.0))


def _profile_night_storage(rng: np.random.Generator) -> np.ndarray:
    """Night-storage heating: strong overnight draw on cheap tariff."""
    base = rng.uniform(2.0, 5.0)
    return base + _bump(2.5, 2.5, rng.uniform(25.0, 45.0)) + _bump(19, 2.0, rng.uniform(5.0, 12.0))


def _profile_ev_charger(rng: np.random.Generator) -> np.ndarray:
    """Late-evening EV charging spike on top of a commuter curve."""
    return _profile_morning_evening(rng) + _bump(23, 1.2, rng.uniform(20.0, 35.0))


def _profile_heavy_consumer(rng: np.random.Generator) -> np.ndarray:
    """Large household: elevated everything."""
    base = rng.uniform(8.0, 14.0)
    return (
        base
        + _bump(8, 2.0, rng.uniform(10.0, 20.0))
        + _bump(14, 3.0, rng.uniform(8.0, 15.0))
        + _bump(20, 2.5, rng.uniform(18.0, 30.0))
    )


#: Archetype builders, ordered from most to least popular.
ARCHETYPE_BUILDERS = (
    _profile_morning_evening,
    _profile_evening_heavy,
    _profile_flat_night,
    _profile_daytime_home,
    _profile_business,
    _profile_night_storage,
    _profile_ev_charger,
    _profile_heavy_consumer,
)


def generate_cer(
    n_series: int = 30_000,
    population_scale: int = 100,
    noise_sd: float = 1.5,
    popularity_decay: float = 0.62,
    seed: int | np.random.Generator = 0,
) -> TimeSeriesSet:
    """Generate a CER-like dataset of daily 24-hour load curves.

    ``n_series`` distinct curves are drawn from the archetype mixture with
    geometric popularity ``popularity_decay^rank`` (concentrated, like CER),
    jittered per-hour with Gaussian noise of ``noise_sd``, and clipped to
    ``[0, 80]``.  ``population_scale`` records how many individuals each
    stored curve represents (default 100 → effective 3M individuals for the
    paper's default 30K curves), which the DP arithmetic uses.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(len(ARCHETYPE_BUILDERS))
    popularity = popularity_decay**ranks
    popularity /= popularity.sum()
    choices = rng.choice(len(ARCHETYPE_BUILDERS), size=n_series, p=popularity)
    values = np.empty((n_series, 24))
    for idx, archetype in enumerate(choices):
        curve = ARCHETYPE_BUILDERS[archetype](rng)
        values[idx] = curve + rng.normal(0.0, noise_sd, size=24)
    np.clip(values, _DMIN, _DMAX, out=values)
    return TimeSeriesSet(
        values=values,
        dmin=_DMIN,
        dmax=_DMAX,
        name="cer-like",
        population_scale=population_scale,
    )


def courbogen_like_centroids(k: int, rng: np.random.Generator) -> np.ndarray:
    """Synthetic initial centroids in the spirit of EDF's CourboGen.

    Returns ``k`` *plausible but generic* load profiles: a random base load
    plus one to three bumps at random hours.  Crucially these are neither
    sampled from any dataset nor copies of the generator's archetypes —
    matching the paper's privacy constraint on CER initial centroids (and
    leaving k-means an actual descent to perform, as in Fig. 2).
    """
    centroids = np.empty((k, 24))
    for i in range(k):
        curve = np.full(24, rng.uniform(1.0, 10.0))
        for _ in range(rng.integers(1, 4)):
            curve = curve + _bump(
                rng.uniform(0, 24), rng.uniform(1.0, 5.0), rng.uniform(5.0, 40.0)
            )
        centroids[i] = np.clip(curve, _DMIN, _DMAX)
    return centroids
