"""A3-like 2-D points dataset (Appendix D).

The paper's final illustration duplicates the 7.5K-point, 50-cluster A3
benchmark 100 times with a small uniform jitter, producing 750K points, and
runs both clear k-means and Chiaroscuro (GREEDY, no smoothing) on it.
The original A3 file is a University of Eastern Finland download; we
synthesize an equivalent: 50 well-separated Gaussian blobs of 150 points
each on a jittered grid, then apply the same duplicate-and-jitter step.

2-D points are "time-series of size 2" for the privacy arithmetic but have
no temporal adjacency, so SMA smoothing does not apply — mirrored by the
experiment harness.
"""

from __future__ import annotations

import numpy as np

from .timeseries import TimeSeriesSet

__all__ = ["generate_points2d", "generate_a3_like"]

_DMIN, _DMAX = 0.0, 1000.0


def generate_a3_like(
    n_clusters: int = 50,
    points_per_cluster: int = 150,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the base A3-like set: (points, true_centers).

    Cluster centers sit on a jittered √k × √k grid inside
    ``[100, 900]²`` so blobs (σ = 18) are well separated.
    """
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_clusters)))
    xs, ys = np.meshgrid(np.linspace(120, 880, side), np.linspace(120, 880, side))
    centers = np.column_stack([xs.ravel(), ys.ravel()])[:n_clusters]
    centers = centers + rng.uniform(-30, 30, size=centers.shape)
    points = np.concatenate(
        [
            center + rng.normal(0.0, 18.0, size=(points_per_cluster, 2))
            for center in centers
        ]
    )
    return np.clip(points, _DMIN, _DMAX), centers


def generate_points2d(
    n_clusters: int = 50,
    points_per_cluster: int = 150,
    duplications: int = 100,
    jitter: float = 4.0,
    seed: int | np.random.Generator = 0,
) -> TimeSeriesSet:
    """The Appendix D construction: A3-like base × ``duplications`` + jitter.

    Default sizes reproduce the paper's 7.5K × 100 = 750K points.  The
    jitter is uniform in ``[−jitter, +jitter]`` — "small enough to preserve
    the clusters".
    """
    rng = np.random.default_rng(seed)
    base, _ = generate_a3_like(n_clusters, points_per_cluster, seed=rng)
    copies = np.repeat(base, duplications, axis=0)
    copies = copies + rng.uniform(-jitter, jitter, size=copies.shape)
    return TimeSeriesSet(
        values=np.clip(copies, _DMIN, _DMAX),
        dmin=_DMIN,
        dmax=_DMAX,
        name="a3-750k-like",
    )
