"""Service overhead — what a job costs beyond its own protocol work.

The paper's figures are sweeps, and the repo runs them as many small jobs
through :func:`repro.service.run_batch`.  This bench prices the service
layer for exactly that shape: ``JOBS`` tiny specs (≈ 10 ms of protocol
work each, quality and vectorized planes alternating) through ``run_batch``
on ``WORKERS`` workers, against the same specs run inline in this process.

``per_job_overhead_s`` = (``batch_seconds`` · ``WORKERS`` − Σ inline) /
``JOBS`` — the same definition as the reference benchmark's
``service.job_overhead_s`` (``perf/README.md``).  Every job's result must
equal its inline run; a batch that drops or changes a job fails the bench.

A speedup is a committed pair of points.  The bench only uses the public
API, so the *before* point is taken by copying this file and ``conftest.py``
into a checkout of the parent revision, running it there, and committing
that envelope as ``BENCH_service_overhead_<rev>.json`` beside the head's
``BENCH_service_overhead.json`` (same bench name, two ``git_rev`` keys:
two points of one warehouse trajectory).
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import record_json, record_report
from repro.api import Experiment, RunSpec, run_record
from repro.service import run_batch

JOBS = 12
WORKERS = 2
REPEATS = 5


def tiny_spec(index: int) -> RunSpec:
    plane = ("quality", "vectorized")[index % 2]
    params = {"k": 3, "max_iterations": 2, "epsilon": 50.0, "theta": 0.0}
    if plane == "vectorized":
        params["exchanges"] = 10
    return RunSpec.from_dict({
        "name": f"overhead-{plane}-{index}",
        "plane": plane,
        "seed": index,
        "strategy": "G",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 100, "population_scale": 100}},
        "init": {"kind": "courbogen"},
        "params": params,
    })


def run_inline(specs: list[RunSpec]) -> tuple[float, list[dict]]:
    started = time.perf_counter()
    results = [Experiment.from_spec(spec).run() for spec in specs]
    seconds = time.perf_counter() - started
    return seconds, [
        json.loads(json.dumps(run_record(spec, result)["result"]))
        for spec, result in zip(specs, results)
    ]


def test_service_overhead(tmp_path):
    specs = [tiny_spec(index) for index in range(JOBS)]
    run_inline(specs)  # lazy imports and dataset caches: not the service's bill
    inline_seconds, expected = run_inline(specs)

    batch_samples = []
    for repeat in range(REPEATS):
        started = time.perf_counter()
        records = run_batch(
            specs, tmp_path / f"root-{repeat}", max_workers=WORKERS
        )
        batch_samples.append(time.perf_counter() - started)
        assert [record["result"] for record in records] == expected

    batch_seconds = statistics.median(batch_samples)
    overhead = (batch_seconds * WORKERS - inline_seconds) / JOBS
    record_json("service_overhead", {
        "jobs": JOBS,
        "workers": WORKERS,
        "repeats": REPEATS,
        "inline_seconds": round(inline_seconds, 4),
        "per_job_inline_s": round(inline_seconds / JOBS, 4),
        "batch_seconds": round(batch_seconds, 4),
        "batch_seconds_samples": [round(s, 4) for s in batch_samples],
        "per_job_overhead_s": round(overhead, 4),
        "results_equal_inline": True,
    })
    record_report(
        "service_overhead",
        f"Service overhead: {JOBS} tiny jobs, {WORKERS} workers "
        f"(median of {REPEATS} batches)",
        [
            f"{'inline, all jobs':<28}{inline_seconds:>9.3f} s",
            f"{'run_batch, all jobs':<28}{batch_seconds:>9.3f} s",
            f"{'inline per job':<28}{inline_seconds / JOBS * 1e3:>9.1f} ms",
            f"{'service overhead per job':<28}{overhead * 1e3:>9.1f} ms",
        ],
    )
