"""Figure 6 / Appendix D — the 750K two-dimensional points illustration.

Clear k-means vs the perturbed GREEDY execution (no smoothing: 2-D points
have no temporal adjacency) on the duplicated A3-like dataset; the paper
shows the 6th-iteration centroids landing within or between true clusters.
We quantify that with the distance from each surviving perturbed centroid
to the nearest true cluster center.  The private run is a ``RunSpec`` on
the ``points2d`` dataset key, executed through ``repro.api``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_report, record_runs
from repro.api import Experiment, RunSpec, run_record
from repro.clustering import lloyd_kmeans
from repro.datasets import generate_a3_like

ITERATION_OF_INTEREST = 6  # the paper's pick

SPEC = RunSpec.from_dict({
    "name": "fig6-points2d",
    "plane": "quality",
    "seed": 4,
    "strategy": "G",
    "dataset": {"kind": "points2d", "params": {"seed": 4}},
    "init": {"kind": "sample", "params": {"seed": 4}},
    "params": {"k": 50, "max_iterations": ITERATION_OF_INTEREST, "epsilon": 0.69,
               "use_smoothing": False, "theta": 0.0},
})


@pytest.mark.xfail(strict=True, reason=(
    "joint calibration: by iteration 6 GREEDY's count noise has lost most "
    "centroids — docs/ARCHITECTURE.md \"Calibration\""
))
def test_fig6_points2d(benchmark):
    experiment = Experiment.from_spec(SPEC)
    data = experiment.context.dataset  # 7.5K × 100 = 750K points
    init = experiment.context.initial_centroids
    _, true_centers = generate_a3_like(seed=4)

    benchmark.pedantic(
        lambda: lloyd_kmeans(data.values, init, max_iterations=2, threshold=0.0),
        rounds=1,
        iterations=1,
    )

    clear = lloyd_kmeans(
        data.values, init, max_iterations=ITERATION_OF_INTEREST, threshold=0.0
    )
    started = time.perf_counter()
    perturbed = experiment.run()
    elapsed = time.perf_counter() - started

    def nearest_center_distances(centroids):
        d = np.linalg.norm(
            centroids[:, None, :] - true_centers[None, :, :], axis=2
        ).min(axis=1)
        return d

    clear_d = nearest_center_distances(clear.centroids[-1])
    pert_d = nearest_center_distances(perturbed.history[-1].centroids)
    grid_pitch = 780 / (np.ceil(np.sqrt(50)) - 1)  # spacing of true centers

    rows = [
        f"{'execution':<22}{'#centroids':>12}{'median d':>12}{'p90 d':>12}{'within blob':>14}",
        (
            f"{'clear k-means':<22}{len(clear_d):>12d}{np.median(clear_d):>12.1f}"
            f"{np.quantile(clear_d, 0.9):>12.1f}{(clear_d < 40).mean():>14.2f}"
        ),
        (
            f"{'Chiaroscuro (G)':<22}{len(pert_d):>12d}{np.median(pert_d):>12.1f}"
            f"{np.quantile(pert_d, 0.9):>12.1f}{(pert_d < 40).mean():>14.2f}"
        ),
        f"(blob std = 18, true-center grid pitch ≈ {grid_pitch:.0f})",
    ]
    record_report(
        "fig6_points2d",
        f"Fig 6: centroids at iteration {ITERATION_OF_INTEREST} over 750K 2-D points",
        rows,
    )

    record_runs(
        "fig6_points2d",
        [run_record(SPEC, perturbed, timings={"wall_seconds": elapsed})],
        extra={
            "population": data.population,
            "iteration": ITERATION_OF_INTEREST,
            "clear_median_distance": float(np.median(clear_d)),
            "perturbed_median_distance": float(np.median(pert_d)),
            "perturbed_within_half_pitch": float((pert_d < grid_pitch / 2).mean()),
        },
    )
    # Paper shape: perturbed centroids are less accurate but mostly land
    # within or near actual clusters.
    assert np.median(clear_d) < 20
    assert np.median(pert_d) < grid_pitch  # near/within clusters, not lost
    assert (pert_d < grid_pitch / 2).mean() > 0.5
