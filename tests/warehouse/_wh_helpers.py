"""Shared builders for the warehouse test suite (imported via pytest's
test-dir sys.path insertion; named uniquely to avoid colliding with the service suite's _helpers module)."""

from __future__ import annotations

import json
import pathlib

from repro.api import (
    Experiment,
    RunCompleted,
    RunSpec,
    RunStarted,
    atomic_write_text,
    run_record,
)
from repro.service import EventBus, JobState, JobStore


def tiny_spec(seed: int = 0, name: str = "", plane: str = "quality",
              max_iterations: int = 2, n_series: int = 100,
              strategy: str = "G") -> RunSpec:
    """A sub-second spec for warehouse tests."""
    params = {"k": 3, "max_iterations": max_iterations, "epsilon": 50.0,
              "theta": 0.0}
    if plane == "vectorized":
        params["exchanges"] = 10
    return RunSpec.from_dict({
        "name": name or f"wh-test-{plane}-{seed}",
        "plane": plane,
        "seed": seed,
        "strategy": strategy,
        "dataset": {"kind": "cer",
                    "params": {"n_series": n_series,
                               "population_scale": 100}},
        "init": {"kind": "courbogen"},
        "params": params,
    })


def populate_job(store: JobStore, spec: RunSpec) -> str:
    """Run ``spec`` inline and lay down a completed job's full on-disk
    shape (job.ndjson, events.ndjson with seq, result.json) — what a
    worker process would have produced, without the process."""
    job = store.submit(spec)
    store.claim(job)
    bus = EventBus(store, job.job_id)
    result = None
    environment = None
    for event in Experiment.from_spec(spec).run_iter():
        bus.publish(event)
        if isinstance(event, RunStarted):
            environment = {
                "crypto_backend": event.crypto_backend,
                "bigint_backend": event.bigint_backend,
                "key_bits": event.key_bits,
            }
        elif isinstance(event, RunCompleted):
            result = event.result
    record = run_record(spec, result, timings={"wall_seconds": 0.5},
                        environment=environment)
    atomic_write_text(store.result_path(job.job_id),
                      json.dumps(record, indent=2) + "\n")
    store.update(job.job_id, state=JobState.COMPLETED, finished_at=1.0)
    bus.publish_record({"type": "job_completed", "job": job.job_id,
                        "ts": 1.0, "wall_seconds": 0.5})
    return job.job_id


def bench_envelope(bench: str, git_rev: str, unix_time: float,
                   data: dict) -> dict:
    """A chiaroscuro-bench/v1 envelope with the provenance block."""
    timestamp = f"2026-08-{int(unix_time) % 28 + 1:02d}T00:00:00Z"
    return {
        "schema": "chiaroscuro-bench/v1",
        "bench": bench,
        "git_rev": git_rev,
        "python": "3.11",
        "timestamp": timestamp,
        "provenance": {
            "git_rev": git_rev,
            "git_rev_full": git_rev * 5,
            "timestamp": timestamp,
            "unix_time": unix_time,
        },
        "data": data,
    }


def write_json(path: pathlib.Path, payload: dict) -> pathlib.Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
