"""Batch helpers: submit many specs and collect their run records.

The sweep pattern every frontend repeats — build N :class:`RunSpec`
variants, run them, collect ``chiaroscuro-run/v1`` records — becomes two
calls: :func:`load_specs` (a spec file may hold one spec object *or* a
JSON array of them) and :func:`run_batch` (submit, drain a scheduler,
return records in submit order).  The examples and the fig. 3(a) churn
bench run their sweeps through exactly this path, so the service gets
exercised by the repo's own workloads, not only by its tests.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Mapping

from ..api.spec import RunSpec
from .scheduler import Scheduler
from .store import JobState, JobStore

__all__ = ["load_specs", "run_batch"]


def load_specs(path: str | pathlib.Path) -> list[RunSpec]:
    """Parse a spec file: one spec object, or a JSON array of specs."""
    payload = json.loads(pathlib.Path(path).read_text())
    if isinstance(payload, list):
        return [RunSpec.from_dict(entry) for entry in payload]
    if isinstance(payload, Mapping):
        return [RunSpec.from_dict(payload)]
    raise ValueError(
        f"{path}: expected a spec object or an array of specs, "
        f"got {type(payload).__name__}"
    )


def run_batch(
    specs: Iterable[RunSpec | Mapping],
    root: str | pathlib.Path,
    max_workers: int = 4,
    timeout: float | None = None,
) -> list[dict]:
    """Submit ``specs``, drain a scheduler over them, return the records.

    Records come back in submit order.  Any failed job raises — a sweep
    with silently missing variants would be worse than no sweep.
    """
    store = JobStore(root)
    jobs = store.submit_batch(specs)
    # Nothing is submitted behind a batch's back: the tick only bounds how
    # late the drain notices its timeout.
    scheduler = Scheduler(store, max_workers=max_workers, poll_interval=0.05)
    scheduler.recover()
    scheduler.drain(timeout=timeout)
    # Only the submitted jobs are re-read, not the root's whole history.
    failed = [
        job for job in (store.get(j.job_id) for j in jobs)
        if job.state != JobState.COMPLETED
    ]
    if failed:
        details = "; ".join(f"{job.job_id}: {job.error}" for job in failed)
        raise RuntimeError(f"{len(failed)} job(s) did not complete — {details}")
    return [store.load_result(job.job_id) for job in jobs]
