"""Population scaling — object engine vs the struct-of-arrays plane.

The paper's headline is clustering at 10⁵–10⁶ participants; the object
engine (per-node dicts, Python loops) saturates around 10⁴.  This bench
measures the protocol plane's scaling directly:

1. **speedup** — per-exchange cost of the full protocol composition
   (EESum with delayed-division counters + cleartext counter + min-id
   dissemination) on the object engine (mock-homomorphic integers, so
   crypto cost does not mask engine cost) vs the vectorized plane, at 10⁴
   nodes: the acceptance floor is ≥ 50×;
2. **scaling** — vectorized per-cycle wall-times at 10⁴ → 10⁶ nodes;
3. **full loop** — a complete Chiaroscuro run (assignment → EESum →
   noise → dissemination → collection → smoothing → convergence) with
   ``plane="vectorized"`` at 10⁵ participants (k = 10, n = 20),
   and one iteration at 10⁶ (k = 10, n = 2 — the paper's Fig. 3(b)/4
   population), each with its seconds per iteration and its peak RSS.

All three land in ``out/BENCH_population_scaling.json``.
``test_population_smoke`` is the CI subset with a wall-clock and a
peak-memory guard.
"""

from __future__ import annotations

import json
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_report, record_runs
from repro.api import DATASETS, Experiment, RunSpec, register_dataset, run_record
from repro.datasets import TimeSeriesSet
from repro.gossip import (
    EESum,
    EpidemicSum,
    GossipEngine,
    MinIdDissemination,
    MockHomomorphicOps,
    VectorizedEESum,
    VectorizedGossipEngine,
    VectorizedMinId,
)

K = 10
SERIES_LENGTH = 20
DIMS = K * (SERIES_LENGTH + 1)  # the k·(n+1) Diptych payload
FRACTIONAL_BITS = 24


def _object_seconds_per_exchange(population: int, cycles: int = 3) -> float:
    """Full-protocol cycle cost on the object engine (mock-homomorphic)."""
    rng = np.random.default_rng(0)
    values = rng.uniform(-4.0, 4.0, size=(population, DIMS))
    encoded = np.round(values * (1 << FRACTIONAL_BITS)).astype(np.int64)
    # Genuine Python ints: the mock plane must pay the growing-big-int
    # arithmetic a real run's plaintexts would, not boxed-float costs.
    initial = {i: [int(v) for v in encoded[i]] for i in range(population)}
    engine = GossipEngine(population, seed=1)
    eesum = EESum(None, initial, ops=MockHomomorphicOps())
    counter = EpidemicSum({i: np.array([1.0]) for i in range(population)})
    dissemination = MinIdDissemination(
        {i: (int(x), None) for i, x in enumerate(rng.integers(0, 1 << 62, population))}
    )
    engine.setup(eesum, counter, dissemination)
    start = time.perf_counter()
    exchanges = engine.run_cycles(cycles, eesum, counter, dissemination)
    elapsed = time.perf_counter() - start
    return elapsed / max(exchanges, 1)


def _vectorized_seconds_per_exchange(population: int, cycles: int = 10) -> float:
    """Same protocol composition on the struct-of-arrays plane."""
    rng = np.random.default_rng(0)
    # One allocation, quantized in place and handed over without a copy: at
    # 10⁶ nodes the matrix is 1.7 GB and the bench must not hold three.
    values = rng.uniform(-4.0, 4.0, size=(population, DIMS + 1))
    values *= 1 << FRACTIONAL_BITS
    np.round(values, out=values)
    values /= 1 << FRACTIONAL_BITS
    values[:, -1] = 1.0
    engine = VectorizedGossipEngine(population, seed=1)
    eesum = VectorizedEESum(values, copy=False)
    del values
    dissemination = VectorizedMinId(
        rng.integers(0, 1 << 62, population).astype(np.int64)
    )
    engine.run_cycle(eesum, dissemination)  # warm-up (allocations, caches)
    start = time.perf_counter()
    exchanges = engine.run_cycles(cycles, eesum, dissemination)
    elapsed = time.perf_counter() - start
    return elapsed / max(exchanges, 1)


if "population-sim" not in DATASETS:  # idempotent under pytest re-imports

    @register_dataset("population-sim")
    def _population_sim(seed: int, *, population: int,
                        series_length: int = SERIES_LENGTH) -> TimeSeriesSet:
        """Uniform-random series at bench scale — a one-decorator scenario
        registration, exactly the extension path user workloads take."""
        rng = np.random.default_rng(seed)
        return TimeSeriesSet(
            rng.uniform(0.0, 40.0, size=(population, series_length)),
            0.0, 40.0, name=f"population-sim-{population}",
        )


def _full_run_spec(
    population: int, max_iterations: int, exchanges: int, series_length: int
) -> RunSpec:
    return RunSpec.from_dict({
        "name": f"population-scaling-{population}",
        "plane": "vectorized",
        "seed": 0,
        "strategy": "G",
        "dataset": {"kind": "population-sim",
                    "params": {"population": population,
                               "series_length": series_length, "seed": 3}},
        "init": {"kind": "uniform", "params": {"seed": 3}},
        "params": {"k": K, "max_iterations": max_iterations,
                   "exchanges": exchanges, "epsilon": 0.69},
    })


def _full_run(
    population: int,
    max_iterations: int,
    exchanges: int,
    series_length: int = SERIES_LENGTH,
) -> dict:
    """A complete vectorized-plane Chiaroscuro run via the API facade.

    Runs in a fresh interpreter: ``peak_rss_mb`` is ``ru_maxrss``, a
    process-lifetime high-water mark, and must be this run's own.  (A child
    starts from its parent's mark, so call this before the bench process
    itself has built anything large.)
    """
    code = (
        "import json, bench_population_scaling as bench; "
        "print(json.dumps(bench._full_run_here("
        f"{population}, {max_iterations}, {exchanges}, {series_length})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=pathlib.Path(__file__).parent,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _full_run_here(
    population: int, max_iterations: int, exchanges: int, series_length: int
) -> dict:
    from repro.api import IterationCompleted, RunCompleted

    spec = _full_run_spec(population, max_iterations, exchanges, series_length)
    exchanges_per_node = []
    result = None
    start = time.perf_counter()
    for event in Experiment.from_spec(spec).run_iter():
        if isinstance(event, IterationCompleted):
            exchanges_per_node.append(float(event.exchanges_per_node))
        elif isinstance(event, RunCompleted):
            result = event.result
    elapsed = time.perf_counter() - start
    return {
        "population": population,
        "k": K,
        "series_length": series_length,
        "exchanges": exchanges,
        "iterations_completed": result.iterations,
        "seconds_total": float(elapsed),
        "seconds_per_iteration": float(elapsed / max(result.iterations, 1)),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pre_inertia": [float(v) for v in result.pre_inertia_curve],
        "n_centroids": [int(v) for v in result.n_centroids_curve],
        "mean_exchanges_per_node": exchanges_per_node,
        "run_record": run_record(
            spec, result, timings={"wall_seconds": float(elapsed)}
        ),
    }


def test_population_scaling_speedup(benchmark):
    """Acceptance: ≥ 50× per-exchange over the object engine at 10⁴ nodes,
    plus a full Chiaroscuro loop at 10⁵ and one iteration at 10⁶
    participants."""
    # The full runs first: their children inherit this process's RSS mark.
    full = _full_run(100_000, max_iterations=2, exchanges=15)
    full_1m = _full_run(1_000_000, max_iterations=1, exchanges=15, series_length=2)

    benchmark.pedantic(
        lambda: _vectorized_seconds_per_exchange(10_000, cycles=3),
        rounds=1,
        iterations=1,
    )

    object_cost = {p: _object_seconds_per_exchange(p) for p in (1_000, 10_000)}
    vectorized_cost = {
        p: _vectorized_seconds_per_exchange(p) for p in (10_000, 100_000, 1_000_000)
    }
    speedup = object_cost[10_000] / vectorized_cost[10_000]

    rows = [
        f"{'plane':<14}{'population':>12}{'us/exchange':>14}",
        *(
            f"{'object':<14}{p:>12}{c * 1e6:>14.2f}"
            for p, c in sorted(object_cost.items())
        ),
        *(
            f"{'vectorized':<14}{p:>12}{c * 1e6:>14.2f}"
            for p, c in sorted(vectorized_cost.items())
        ),
        f"per-exchange speedup at 10^4 nodes: {speedup:.0f}x (floor: 50x)",
        *(
            f"full vectorized run at {run['population']:.0e} "
            f"(n = {run['series_length']}): {run['iterations_completed']} "
            f"iterations in {run['seconds_total']:.1f} s "
            f"({run['seconds_per_iteration']:.1f} s/iteration), "
            f"peak RSS {run['peak_rss_mb']:.0f} MB"
            for run in (full, full_1m)
        ),
    ]
    record_report(
        "population_scaling",
        f"Population scaling: full protocol, {DIMS}-dim Diptych payload",
        rows,
    )
    record_runs(
        "population_scaling",
        [full.pop("run_record"), full_1m.pop("run_record")],
        extra={
            "dims": DIMS,
            "object_seconds_per_exchange": {
                str(p): float(c) for p, c in object_cost.items()
            },
            "vectorized_seconds_per_exchange": {
                str(p): float(c) for p, c in vectorized_cost.items()
            },
            "speedup_at_10k": float(speedup),
            "full_run_100k": full,
            "full_run_1m": full_1m,
        },
    )

    assert speedup >= 50.0, f"vectorized plane speedup {speedup:.0f}x < 50x"
    for run in (full, full_1m):
        assert run["iterations_completed"] >= 1
        assert run["n_centroids"][0] >= 1


#: Ascending populations attempted by the vectorized-crypto sweep; a
#: point only counts when its full iteration lands under the budget.
CRYPTO_SWEEP = (10_000, 20_000, 40_000, 100_000)
CRYPTO_POINT_BUDGET = 45.0


def _crypto_run_spec(population: int) -> RunSpec:
    """A light payload (k=3, 4-point series) so the sweep probes the
    crypto plane's population frontier, not the payload width."""
    return RunSpec.from_dict({
        "name": f"population-scaling-crypto-{population}",
        "plane": "vectorized-crypto",
        "seed": 0,
        "strategy": "G",
        "dataset": {"kind": "population-sim",
                    "params": {"population": population, "series_length": 4,
                               "seed": 3}},
        "init": {"kind": "uniform", "params": {"seed": 3}},
        "params": {"k": 3, "max_iterations": 1, "exchanges": 2,
                   "epsilon": 10.0, "key_bits": 256, "theta": 0.0,
                   "crypto_backend": "process"},
    })


def test_vectorized_crypto_population_sweep(benchmark):
    """Largest population completing one every-exchange-real-crypto
    iteration under the per-point time budget (the plane's frontier as
    tracked across PRs)."""
    from repro.api import IterationCompleted, RunCompleted
    from repro.crypto import bigint

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    points = []
    largest = 0
    for population in CRYPTO_SWEEP:
        spec = _crypto_run_spec(population)
        crypto_ms = 0.0
        result = None
        start = time.perf_counter()
        for event in Experiment.from_spec(spec).run_iter():
            if isinstance(event, IterationCompleted):
                crypto_ms += float(event.crypto_ms or 0.0)
            elif isinstance(event, RunCompleted):
                result = event.result
        elapsed = time.perf_counter() - start
        completed = result.iterations >= 1
        under_budget = completed and elapsed <= CRYPTO_POINT_BUDGET
        points.append({
            "population": population,
            "iterations_completed": int(result.iterations),
            "seconds_total": float(elapsed),
            "crypto_seconds": float(crypto_ms / 1000.0),
            "under_budget": bool(under_budget),
        })
        if under_budget:
            largest = population
        if not under_budget:
            break  # larger points cannot land under the budget either

    rows = [
        f"{'population':>12}{'total s':>10}{'crypto s':>10}{'in budget':>11}",
        *(
            f"{p['population']:>12}{p['seconds_total']:>10.1f}"
            f"{p['crypto_seconds']:>10.1f}"
            f"{'yes' if p['under_budget'] else 'no':>11}"
            for p in points
        ),
        (
            f"largest under {CRYPTO_POINT_BUDGET:.0f}s budget: {largest} "
            f"participants ({bigint.active_backend()} kernel)"
        ),
    ]
    record_report(
        "population_scaling_crypto",
        "Vectorized-crypto frontier: every exchange real Damgård–Jurik",
        rows,
    )
    from conftest import record_json

    record_json("population_scaling_crypto", {
        "bigint_backend": bigint.active_backend(),
        "point_budget_seconds": CRYPTO_POINT_BUDGET,
        "points": points,
        "largest_under_budget": largest,
    })
    assert largest >= 10_000, (
        f"crypto plane frontier regressed below 10^4 ({points})"
    )


PEAK_RSS_CAP_MB = 1.25 * 238.0


def test_population_smoke(benchmark):
    """CI smoke: a one-iteration Chiaroscuro loop + a few full-protocol
    cycles at 10⁵ nodes, wall-clock- and peak-memory-guarded so regressions
    fail loudly."""
    start = time.perf_counter()
    full = _full_run(100_000, max_iterations=1, exchanges=10)
    per_exchange = _vectorized_seconds_per_exchange(100_000, cycles=3)
    elapsed = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    record_runs(
        "population_smoke",
        [full.pop("run_record")],
        extra={
            "population": 100_000,
            "vectorized_seconds_per_exchange": float(per_exchange),
            "full_run": full,
            "wall_seconds": float(elapsed),
        },
    )
    assert full["iterations_completed"] == 1
    # Wall-clock guard: 10^5 nodes must stay comfortably interactive; a
    # regression to object-engine-like scaling would blow far past this.
    assert elapsed < 120.0, f"large-population smoke took {elapsed:.0f}s (cap 120s)"
    # Peak-memory guard: the run measures 238 MB, 169 MB of it the one
    # 10⁵ × 211 payload matrix (the surplus correction is two Gamma draws
    # per dimension); the cap is that + 25 %, so a second matrix of that
    # size anywhere in the iteration fails.
    assert full["peak_rss_mb"] < PEAK_RSS_CAP_MB, (
        f"10^5-node iteration peaked at {full['peak_rss_mb']:.0f} MB "
        f"(cap {PEAK_RSS_CAP_MB:.0f} MB)"
    )
