"""Durable on-disk job queue: the persistence half of the service.

One service root directory holds everything the server knows::

    <root>/
      jobs/<job_id>/
        job.ndjson                lifecycle log: the Job record, then one
                                  line per state change
        checkpoints/state.ndjson  checkpoint state log, one line an iteration
        events.ndjson             the job's own RunEvent stream
        result.json               chiaroscuro-run/v1 record (once completed)

States move ``queued → running → completed | failed``; a ``running`` job
found at startup is a crash marker — :meth:`JobStore.recover` re-enqueues
it and the worker resumes from the job's state log (bit-identical on
every plane).

A job is the fold of its lifecycle log (:func:`repro.ndjson.fold`): the
first line is :meth:`Job.to_dict`, and :meth:`JobStore.submit`,
:meth:`~JobStore.claim`, :meth:`~JobStore.update` and
:meth:`~JobStore.recover` each append one line holding only the fields
they change — one fsynced ``O_APPEND`` write before they return (the
directory too when the line creates the log).  A SIGKILL at any instant
leaves a state the job really passed through: a torn last line is not
read.  Updates from two processes both land; neither rewrites the other.
A ``job.json`` left by a root written before the log existed is read as
the fold's first record and never written.  Queue ordering is submit
order (``submitted_at``, then ``job_id``).  Claiming is *not*
multi-scheduler safe: one scheduler process owns a root at a time (the
deployment model — ``repro serve`` — matches).
"""

from __future__ import annotations

import json
import pathlib
import time
import uuid
from dataclasses import asdict, dataclass, replace
from typing import Collection, Iterable, Mapping

from ..api.checkpoint import sweep_stale_tmps
from ..api.spec import RunSpec
from ..ndjson import append, dumps_line, fold, torn

__all__ = ["Job", "JobState", "JobStore"]


class JobState:
    """The four job states (plain strings so job logs stay obvious)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"

    ALL = (QUEUED, RUNNING, COMPLETED, FAILED)
    #: States a scheduler still owes work for.
    PENDING = (QUEUED, RUNNING)


@dataclass(frozen=True)
class Job:
    """One submitted experiment: a spec dict plus its lifecycle record."""

    job_id: str
    spec: dict  # RunSpec.to_dict() — normalized at submit time
    state: str = JobState.QUEUED
    name: str = ""  # spec name, for listings
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0  # times a worker picked it up (resumes included)
    error: str = ""  # last failure, one line

    def to_dict(self) -> dict:
        return {"format": "chiaroscuro-job/v1", **asdict(self)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Job":
        fmt = d.get("format", "chiaroscuro-job/v1")
        if fmt != "chiaroscuro-job/v1":
            raise ValueError(f"unsupported job format {fmt!r}")
        return cls(
            job_id=d["job_id"],
            spec=dict(d["spec"]),
            state=d.get("state", JobState.QUEUED),
            name=d.get("name", ""),
            submitted_at=float(d.get("submitted_at", 0.0)),
            started_at=d.get("started_at"),
            finished_at=d.get("finished_at"),
            attempts=int(d.get("attempts", 0)),
            error=d.get("error", ""),
        )


class JobStore:
    """One service root directory of jobs (see module docstring)."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        # Kill-mid-write hygiene: tmps whose writer pid is dead are
        # leftovers of a crashed server.
        sweep_stale_tmps(self.jobs_dir, "*/*.tmp")

    # ------------------------------------------------------------- layout

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def job_path(self, job_id: str) -> pathlib.Path:
        """The record of a job submitted before lifecycle logs: read as
        the fold's first record, never written."""
        return self.job_dir(job_id) / "job.json"

    def log_path(self, job_id: str) -> pathlib.Path:
        """The job's lifecycle log."""
        return self.job_dir(job_id) / "job.ndjson"

    def checkpoint_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "checkpoints"

    def events_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "events.ndjson"

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "result.json"

    # ------------------------------------------------------------- submit

    def submit(self, spec: RunSpec | Mapping, name: str = "") -> Job:
        """Validate and enqueue one spec; returns the durable job record.

        Accepts a built :class:`RunSpec` or a plain dict (which is run
        through :meth:`RunSpec.from_dict`, so malformed specs are rejected
        at the door, not inside a worker).
        """
        if not isinstance(spec, RunSpec):
            spec = RunSpec.from_dict(spec)
        job = Job(
            job_id=self._new_job_id(name or spec.name),
            spec=spec.to_dict(),
            name=name or spec.name,
            submitted_at=time.time(),
        )
        self.job_dir(job.job_id).mkdir(parents=True)
        self._append(job.job_id, job.to_dict())
        return job

    def submit_batch(
        self, specs: Iterable[RunSpec | Mapping]
    ) -> list[Job]:
        """Enqueue many specs in order; all-or-nothing validation."""
        built = [
            spec if isinstance(spec, RunSpec) else RunSpec.from_dict(spec)
            for spec in specs
        ]
        return [self.submit(spec) for spec in built]

    def _new_job_id(self, name: str) -> str:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        token = uuid.uuid4().hex[:6]  # unique across concurrent submitters
        slug = "".join(c if c.isalnum() or c == "-" else "-" for c in name)
        slug = slug.strip("-").lower()[:40]
        return f"{stamp}-{token}" + (f"-{slug}" if slug else "")

    # -------------------------------------------------------------- reads

    def get(self, job_id: str) -> Job:
        job = self._read(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r} in {self.root}")
        return job

    def jobs(self, skip: Collection[str] = ()) -> list[Job]:
        """Jobs in submit order (``submitted_at``, then id), skipping the
        ids in ``skip`` without reading their records.

        ``skip`` is the scheduler's poll-loop primitive: terminal jobs never
        change state, so once observed completed/failed their logs need not
        be re-folded every tick — a long-lived root stays O(active jobs)
        per poll instead of O(all jobs ever submitted).
        """
        out = []
        for entry in sorted(self.jobs_dir.iterdir()):
            if entry.name in skip or not entry.is_dir():
                continue
            job = self._read(entry.name)
            if job is not None:
                out.append(job)
        out.sort(key=lambda job: (job.submitted_at, job.job_id))
        return out

    def _read(self, job_id: str) -> Job | None:
        """The fold of the job's lifecycle log (``None``: no record yet —
        a directory whose first line a kill tore, or no job at all)."""
        record = fold(self.log_path(job_id), legacy=self.job_path(job_id))
        return None if record is None else Job.from_dict(record)

    def in_state(self, *states: str) -> list[Job]:
        return [job for job in self.jobs() if job.state in states]

    def load_result(self, job_id: str) -> dict | None:
        """The job's ``chiaroscuro-run/v1`` record, once the worker wrote it."""
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # ------------------------------------------------------------- writes

    def update(self, job_id: str, **changes) -> Job:
        """Append one state change (durable before this returns); returns
        the job as the log read before it, with ``changes`` applied."""
        job = replace(self.get(job_id), **changes)  # an unknown job or field raises
        self._append(job_id, changes)
        return job

    def claim(self, job: Job) -> Job:
        """Mark a queued job running (one attempt counted).

        Single-scheduler discipline (see module docstring): the claim is
        durable against crashes, not exclusive against a second scheduler.
        """
        return self.update(
            job.job_id,
            state=JobState.RUNNING,
            started_at=time.time(),
            attempts=job.attempts + 1,
        )

    def recover(self) -> list[Job]:
        """Re-enqueue every job left ``running`` by a crashed server.

        The job's checkpoint directory is kept untouched, so the next
        worker resumes after the last completed iteration — bit-identical
        to an uninterrupted run on every plane.
        """
        recovered = []
        for job in self.in_state(JobState.RUNNING):
            recovered.append(self.update(job.job_id, state=JobState.QUEUED))
        return recovered

    def _append(self, job_id: str, record: dict) -> None:
        """One durable line, never glued to a killed writer's torn one."""
        path = self.log_path(job_id)
        line = dumps_line(record).encode()
        append(path, b"\n" + line if torn(path) else line, durable=True)
