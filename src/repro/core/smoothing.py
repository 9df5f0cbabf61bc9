"""Simple-moving-average smoothing of perturbed means (Sec. 5.2).

The Laplace noise added to each measure is symmetric around zero, so a
sliding average over ``w + 1`` neighbouring measures cancels a large part
of it while preserving the profile shape.  The paper indexes neighbours
*modulo n* (daily load curves are circular), which we follow:

    ``S̄[i, j] = (m(S[i, j−w/2]) + … + m(S[i, j+w/2])) / (w + 1)``

Post-processing a differentially-private value is free: the smoothed means
satisfy the same (ε, δ) guarantee.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_sma_window", "sma_smooth"]


def derive_sma_window(series_length: int, fraction: float = 0.2) -> int:
    """The SMA window ``w`` for a series length (Table 2: 20 % of ``n``).

    Rounded to the nearest integer, then down to even so the ±w/2 span is
    symmetric.  This is the single source of truth for the window size:
    :meth:`repro.core.config.ChiaroscuroParams.smoothing_plan` derives the
    window of every plane from here and decides whether it applies.
    """
    w = int(round(fraction * series_length))
    return w if w % 2 == 0 else w - 1


def sma_smooth(means: np.ndarray, window: int) -> np.ndarray:
    """Circular SMA over ``window + 1`` measures (``window`` must be even).

    Accepts a single mean (1-D) or a stack of means (2-D, one per row);
    ``window = 0`` returns the input unchanged.
    """
    if window < 0 or window % 2 != 0:
        raise ValueError("window must be a non-negative even integer")
    means = np.asarray(means, dtype=float)
    if window == 0:
        return means.copy()
    single = means.ndim == 1
    if single:
        means = means[None, :]
    n = means.shape[1]
    if window >= n:
        raise ValueError("window must be smaller than the series length")
    half = window // 2
    offsets = np.arange(-half, half + 1)
    # Circular gather: columns j+o (mod n) for every offset o.
    indices = (np.arange(n)[None, :] + offsets[:, None]) % n
    smoothed = means[:, indices].mean(axis=1)
    return smoothed[0] if single else smoothed
