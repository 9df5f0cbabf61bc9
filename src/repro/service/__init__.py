"""repro.service — the always-on experiment server over ``repro.api``.

PR 3 gave every frontend one declarative substrate: a :class:`RunSpec`
executed by :class:`~repro.api.Experiment`, streaming typed run events
and appending a bit-identically-resumable state log.  This package turns
that substrate into a long-lived service, in the spirit of the paper's
own always-on gossip deployment:

* :class:`JobStore` — durable on-disk queue (``queued → running →
  completed/failed``), one directory per job with its lifecycle log,
  state log, event log and run record;
* :class:`Scheduler` — executes up to ``max_workers`` jobs concurrently
  in worker *processes* forked from the warm scheduler, one per slot for
  a busy period, each running the jobs handed to it in turn (the crypto
  planes parallelize across cores, and each job makes its own
  backend/bigint selection);
* the NDJSON event bus (:mod:`repro.service.bus`) — every job's
  ``RunStarted``/``IterationCompleted``/``CheckpointSaved``/``RunCompleted``
  stream in its own log, merged across jobs on read (:func:`tail_jobs`);
* crash recovery — any job found ``running`` at startup is re-enqueued
  and resumed from its state log, so a SIGKILL-ed server replays
  nothing and loses nothing.

CLI: ``repro serve`` / ``repro submit`` / ``repro jobs`` / ``repro tail``.

Programmatic sweeps go through :func:`run_batch`::

    from repro.service import run_batch
    records = run_batch(specs, root="service-root", max_workers=4)
"""

from .batch import load_specs, run_batch
from .bus import (
    EventBus,
    append_ndjson,
    next_seq,
    read_events,
    tail_events,
    tail_jobs,
)
from .scheduler import Scheduler
from .store import Job, JobState, JobStore

__all__ = [
    "EventBus",
    "Job",
    "JobState",
    "JobStore",
    "Scheduler",
    "append_ndjson",
    "load_specs",
    "next_seq",
    "read_events",
    "run_batch",
    "tail_events",
    "tail_jobs",
]
