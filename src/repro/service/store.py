"""Durable on-disk job queue: the persistence half of the service.

One service root directory holds everything the server knows::

    <root>/
      feed.ndjson                 combined event feed (all jobs, multiplexed)
      jobs/<job_id>/
        job.json                  Job record: spec + state + timestamps
        checkpoints/state.ndjson  checkpoint state log, one line an iteration
        events.ndjson             the job's own RunEvent stream
        result.json               chiaroscuro-run/v1 record (once completed)

States move ``queued → running → completed | failed``; a ``running`` job
found at startup is a crash marker — :meth:`JobStore.recover` re-enqueues
it and the worker resumes from the job's state log (bit-identical on
every plane).

Every ``job.json`` write goes through
:func:`repro.api.checkpoint.atomic_write_text` (pid-unique tmp + fsync +
rename), so a SIGKILL at any instant leaves either the old record or the
new one, never a torn file.  Queue ordering is submit order
(``submitted_at``, then ``job_id``).  Claiming is *not* multi-scheduler
safe: one scheduler process owns a root at a time (the deployment model —
``repro serve`` — matches).
"""

from __future__ import annotations

import json
import pathlib
import time
import uuid
from dataclasses import asdict, dataclass, replace
from typing import Collection, Iterable, Mapping

from ..api.checkpoint import atomic_write_text, sweep_stale_tmps
from ..api.spec import RunSpec

__all__ = ["Job", "JobState", "JobStore"]


class JobState:
    """The four job states (plain strings so job.json stays obvious)."""

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

    @property
    def feed_path(self) -> pathlib.Path:
        return self.root / "feed.ndjson"

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def job_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

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
        self._write(job)
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
        path = self.job_path(job_id)
        if not path.exists():
            raise KeyError(f"unknown job {job_id!r} in {self.root}")
        return Job.from_dict(json.loads(path.read_text()))

    def jobs(self, skip: Collection[str] = ()) -> list[Job]:
        """Jobs in submit order (``submitted_at``, then id), skipping the
        ids in ``skip`` without reading their records.

        ``skip`` is the scheduler's poll-loop primitive: terminal jobs never
        change state, so once observed completed/failed their ``job.json``
        need not be re-parsed every tick — a long-lived root stays O(active
        jobs) per poll instead of O(all jobs ever submitted).
        """
        out = []
        for entry in sorted(self.jobs_dir.iterdir()):
            if entry.name in skip:
                continue
            path = entry / "job.json"
            if path.exists():
                out.append(Job.from_dict(json.loads(path.read_text())))
        out.sort(key=lambda job: (job.submitted_at, job.job_id))
        return out

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
        """Read-modify-write the job record atomically (fresh read first)."""
        job = replace(self.get(job_id), **changes)
        self._write(job)
        return job

    def claim(self, job: Job) -> Job:
        """Mark a queued job running (one attempt counted).

        Single-scheduler discipline (see module docstring): the claim is
        atomic against crashes, not against a second scheduler.
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

    def _write(self, job: Job) -> None:
        atomic_write_text(
            self.job_path(job.job_id), json.dumps(job.to_dict(), indent=2) + "\n"
        )
