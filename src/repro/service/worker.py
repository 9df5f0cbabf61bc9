"""Worker: execute claimed jobs, one at a time, in a process of their own.

The scheduler forks itself once per slot and the child runs :func:`main`,
which executes the jobs the scheduler hands it over a pipe in turn, so
concurrent jobs parallelize across cores (each job makes its own
backend/bigint selection from the spec's params, exactly like an inline
run), a crashing experiment can never take the server down, and no job
pays an interpreter start, an ``import repro`` or — past a slot's first
job — a fork.

The worker drives :meth:`repro.api.Experiment.run_iter` with the job's
checkpoint directory, publishes every event to the NDJSON bus, writes the
``chiaroscuro-run/v1`` record to ``result.json``, and flips the job to
``completed``/``failed``.  A kill at any point leaves the job ``running``
with its state log intact — the crash marker
:meth:`~repro.service.store.JobStore.recover` turns back into ``queued``,
and the next worker resumes after the last completed iteration,
bit-identically on every plane (a faulted run writes no log and reruns
from scratch, which is deterministic for a seeded spec anyway).
"""

from __future__ import annotations

import json
import time
import traceback
from multiprocessing.connection import Connection

from ..api import (
    Experiment,
    RunCompleted,
    RunSpec,
    RunStarted,
    atomic_write_text,
    run_record,
)
from .bus import EventBus
from .store import Job, JobState, JobStore

__all__ = ["execute_job", "fail_job", "main"]


def fail_job(store: JobStore, bus: EventBus, error: str) -> None:
    """Record a terminal failure: the job's lifecycle log, then the bus
    marker a tailing consumer needs to see the stream end."""
    store.update(
        bus.job_id, state=JobState.FAILED, finished_at=time.time(), error=error
    )
    bus.publish_record({
        "type": "job_failed",
        "job": bus.job_id,
        "ts": round(time.time(), 3),
        "error": error,
    })


def execute_job(store: JobStore, job: Job) -> int:
    """Run one job to completion (or failure); returns an exit code."""
    bus = EventBus(store, job.job_id)
    result = None
    environment = None
    started = time.perf_counter()
    try:
        # Inside the try: a spec that validated at submit time can still
        # fail here (e.g. a registry divergence) and must fail the *job*,
        # not just the worker process.
        spec = RunSpec.from_dict(job.spec)
        experiment = Experiment.from_spec(spec)
        for event in experiment.run_iter(
            checkpoint_dir=str(store.checkpoint_dir(job.job_id)), resume=True
        ):
            bus.publish(event)
            if isinstance(event, RunStarted):
                environment = event.environment
            elif isinstance(event, RunCompleted):
                result = event.result
    except Exception as exc:  # noqa: BLE001 - the job fails, not the server
        fail_job(store, bus, f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
        return 1

    elapsed = time.perf_counter() - started
    record = run_record(
        spec,
        result,
        timings={"wall_seconds": elapsed},
        environment=environment,
    )
    atomic_write_text(store.result_path(job.job_id), json.dumps(record) + "\n")
    store.update(job.job_id, state=JobState.COMPLETED, finished_at=time.time())
    bus.publish_record(
        {
            "type": "job_completed",
            "job": job.job_id,
            "ts": round(time.time(), 3),
            "wall_seconds": round(elapsed, 3),
        }
    )
    return 0


def main(store: JobStore, conn: Connection) -> None:
    """Entry of a forked worker: run each :class:`Job` received on
    ``conn`` and answer with its exit code; return on ``None`` or once the
    scheduler's end of the pipe is closed."""
    while True:
        try:
            job = conn.recv()
        except (EOFError, ConnectionError):
            return
        if job is None:
            return
        code = execute_job(store, job)
        try:
            conn.send(code)
        except ConnectionError:
            return  # the scheduler is gone; the outcome is in the job's log
