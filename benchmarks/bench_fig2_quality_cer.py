"""Figure 2(a)/(c) — CER: pre-perturbation intra-cluster inertia and the
number of surviving centroids along ten perturbed k-means iterations, for
every budget strategy with and without SMA smoothing.

Paper setting: 3M daily series × 24 hourly measures in [0, 80], k = 50,
ε = 0.69, GF floor 4, UF ∈ {5, 10}, averages over repeated runs.  We run
30K distinct synthetic series with population_scale = 100 (same effective
3M individuals in the DP arithmetic; ``docs/ARCHITECTURE.md``,
"Calibration") and average 3 seeds.

Every run goes through the unified API: one base ``RunSpec`` dict, with
strategy/smoothing/seed swapped per variant.  The dataset and init blocks
pin their own seeds, so all variants cluster the identical workload (and
the facade's dataset cache builds it once).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_report, record_runs
from repro.api import Experiment, RunSpec, run_record
from repro.clustering import dataset_inertia, lloyd_kmeans

N_SERIES = 30_000
SCALE = 100
K = 50
ITERATIONS = 10
SEEDS = (0, 1, 2)

STRATEGIES = [
    ("UF10", True), ("UF10", False),
    ("UF5", True), ("UF5", False),
    ("G", True), ("G", False),
    ("GF", True), ("GF", False),
]


def spec_for(label: str, smoothing: bool, seed: int) -> RunSpec:
    return RunSpec.from_dict({
        "name": f"fig2ac-cer-{label}{'-sma' if smoothing else ''}",
        "plane": "quality",
        "seed": 1000 + seed,
        "strategy": label,
        "dataset": {"kind": "cer",
                    "params": {"n_series": N_SERIES, "population_scale": SCALE,
                               "seed": 1}},
        "init": {"kind": "courbogen", "params": {"seed": 1}},
        "params": {"k": K, "max_iterations": ITERATIONS, "epsilon": 0.69,
                   "uf_iterations": 5, "use_smoothing": smoothing, "theta": 0.0},
    })


@pytest.fixture(scope="module")
def cer_workload():
    context = Experiment.from_spec(spec_for("G", True, 0)).context
    return context.dataset, context.initial_centroids


def _average_runs(label, smoothing, records):
    inertia = np.zeros(ITERATIONS)
    centroids = np.zeros(ITERATIONS)
    for seed in SEEDS:
        spec = spec_for(label, smoothing, seed)
        started = time.perf_counter()
        result = Experiment.from_spec(spec).run()
        records.append(run_record(
            spec, result, timings={"wall_seconds": time.perf_counter() - started}
        ))
        pre = result.pre_inertia_curve
        cnt = result.n_centroids_curve
        pre = pre + [pre[-1]] * (ITERATIONS - len(pre))
        cnt = cnt + [cnt[-1]] * (ITERATIONS - len(cnt))
        inertia += np.array(pre)
        centroids += np.array(cnt)
    return inertia / len(SEEDS), centroids / len(SEEDS)


def test_fig2a_fig2c_cer_quality(benchmark, cer_workload):
    data, init = cer_workload

    one_iteration = spec_for("G", True, 0).to_dict()
    one_iteration["params"]["max_iterations"] = 1

    def one_perturbed_iteration():
        return Experiment.from_spec(RunSpec.from_dict(one_iteration)).run()

    benchmark.pedantic(one_perturbed_iteration, rounds=3, iterations=1)

    baseline = lloyd_kmeans(data.values, init, max_iterations=ITERATIONS, threshold=0.0)
    full = dataset_inertia(data.values)

    rows_inertia = [
        f"{'series':<12}" + "".join(f"{i:>9d}" for i in range(1, ITERATIONS + 1)),
        f"{'dataset':<12}" + "".join(f"{full:>9.1f}" for _ in range(ITERATIONS)),
        f"{'no-perturb':<12}" + "".join(f"{v:>9.1f}" for v in baseline.inertia),
    ]
    rows_centroids = [
        f"{'series':<12}" + "".join(f"{i:>9d}" for i in range(1, ITERATIONS + 1)),
        f"{'initial':<12}" + "".join(f"{K:>9d}" for _ in range(ITERATIONS)),
        f"{'no-perturb':<12}" + "".join(f"{v:>9d}" for v in baseline.n_centroids),
    ]
    records: list[dict] = []
    curves = {}
    for label, smoothing in STRATEGIES:
        inertia, centroids = _average_runs(label, smoothing, records)
        tag = f"{label}_SMA" if smoothing else label
        curves[tag] = {
            "pre_inertia": [float(v) for v in inertia],
            "n_centroids": [float(v) for v in centroids],
        }
        rows_inertia.append(f"{tag:<12}" + "".join(f"{v:>9.1f}" for v in inertia))
        rows_centroids.append(f"{tag:<12}" + "".join(f"{v:>9.1f}" for v in centroids))

    record_report(
        "fig2a_cer_inertia",
        "Fig 2(a) CER-like: pre-perturbation intra-cluster inertia per iteration",
        rows_inertia,
    )
    record_report(
        "fig2c_cer_centroids",
        "Fig 2(c) CER-like: number of centroids per iteration",
        rows_centroids,
    )

    record_runs(
        "fig2ac_cer_quality",
        records,
        extra={
            "population": data.population,
            "dataset_inertia": float(full),
            "baseline_inertia": [float(v) for v in baseline.inertia],
            "strategies": curves,
        },
    )
    # Shape assertions (who wins, where the crossover falls).
    g_sma = np.array(curves["G_SMA"]["pre_inertia"])
    assert g_sma.min() < full / 4  # perturbed stays far below the upper bound
    assert g_sma.min() < g_sma[-1]  # noise eventually overwhelms GREEDY
