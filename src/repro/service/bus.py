"""NDJSON event bus: per-job logs plus one tailable combined feed.

Workers are separate processes, so the bus is the filesystem: each
published event is appended as one newline-terminated JSON object to the
job's own ``events.ndjson`` *and* to the root-level ``feed.ndjson``.
Appends are a single ``os.write`` on an ``O_APPEND`` descriptor — the
POSIX guarantee that concurrent appenders never interleave within a line
is what makes the combined feed safe without any locking.

Readers are tolerant by construction: a SIGKILL can truncate the last
line mid-byte, so every reader — the warehouse's ingest included — goes
through :func:`repro.ndjson.read_blocks`, which also holds the writer
(the job's durable state lives in ``job.json`` and its checkpoint state
log, never in the event logs).
"""

from __future__ import annotations

import pathlib
import time
from typing import TYPE_CHECKING

from ..api.events import RunEvent, event_to_dict
from ..ndjson import append, dumps_line, read_events, tail_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import JobStore

__all__ = [
    "EventBus",
    "append_ndjson",
    "next_seq",
    "read_events",
    "tail_events",
]


def append_ndjson(path: str | pathlib.Path, record: dict) -> None:
    """Append one JSON object as a single atomic ``O_APPEND`` write."""
    append(path, dumps_line(record).encode())


def next_seq(path: str | pathlib.Path) -> int:
    """The next monotonic ``seq`` for a job log at ``path``.

    Resumes continue the numbering: the successor of the highest ``seq``
    already on disk, or — for logs written before ``seq`` existed — the
    count of complete lines (skipped ones too), so old and new records
    never collide.  A torn tail's ``seq`` was never durably published.
    """
    highest = max(
        (
            record["seq"] for record in tail_events(path)
            if type(record.get("seq")) is int  # not a bool, which is an int
        ),
        default=-1,
    )
    if highest >= 0:
        return highest + 1
    try:
        return pathlib.Path(path).read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


class EventBus:
    """Publish one job's run events to its log and the combined feed.

    Every published record carries a monotonic per-job ``seq`` (resumed
    workers continue where the previous attempt's log ends), giving
    downstream consumers — the warehouse ingester above all — a stable
    dedup key.  Readers that predate ``seq`` simply ignore it.
    """

    def __init__(self, store: "JobStore", job_id: str) -> None:
        self.job_id = job_id
        self.events_path = store.events_path(job_id)
        self.feed_path = store.feed_path
        self._seq = next_seq(self.events_path)

    def publish(self, event: RunEvent) -> dict:
        """Serialize, stamp (job id + seq + wall time), append to both logs."""
        record = event_to_dict(event)
        record["job"] = self.job_id
        record["ts"] = round(time.time(), 3)
        self.publish_record(record)
        return record

    def publish_record(self, record: dict) -> None:
        """Stamp ``seq``, serialise once, append to both logs."""
        record.setdefault("seq", self._seq)
        self._seq = record["seq"] + 1
        data = dumps_line(record).encode()
        append(self.events_path, data)
        append(self.feed_path, data)
