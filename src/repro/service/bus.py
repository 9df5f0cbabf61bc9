"""NDJSON event bus: one event log per job, merged on read.

Workers are separate processes, so the bus is the filesystem: each
published event is appended as one newline-terminated JSON object to the
job's own ``events.ndjson`` — one ``os.write`` on an ``O_APPEND``
descriptor, so concurrent appenders never interleave within a line.
:func:`tail_jobs` is the root-wide view: every job's log merged by
``(ts, job, seq)``, following the jobs not yet seen terminal.

Readers are tolerant by construction: a SIGKILL can truncate the last
line mid-byte, so every reader — the warehouse's ingest included — goes
through :func:`repro.ndjson.read_blocks`, which also holds the writer
(the job's durable state lives in its lifecycle log and its checkpoint
state log, never in the event log).
"""

from __future__ import annotations

import pathlib
import time
from typing import TYPE_CHECKING, Callable, Iterator

from ..api.events import RunEvent, event_to_dict
from ..ndjson import (
    append,
    dumps_line,
    read_blocks,
    read_events,
    tail_events,
    torn,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import JobStore

__all__ = [
    "EventBus",
    "append_ndjson",
    "next_seq",
    "read_events",
    "tail_events",
    "tail_jobs",
]

#: The bus markers that end a job's stream (``worker.fail_job`` and a
#: completed ``execute_job`` publish them last).
_TERMINAL = ("job_completed", "job_failed")


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


def _merge_key(record: dict) -> tuple:
    """``(ts, job, seq)`` of a record; a field a foreign line lacks (or
    holds as another type) sorts first."""
    ts, seq = record.get("ts"), record.get("seq")
    return (
        ts if isinstance(ts, (int, float)) else 0.0,
        str(record.get("job", "")),
        seq if isinstance(seq, int) else -1,
    )


def tail_jobs(
    store: "JobStore",
    follow: bool = False,
    poll_interval: float = 0.2,
    should_stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Yield every job's event records, merged by ``(ts, job, seq)``.

    With ``follow``, keeps polling — until ``should_stop()`` turns true —
    the logs of jobs not yet seen terminal (a ``job_completed`` or
    ``job_failed`` record), jobs submitted meanwhile included; each poll's
    new records are merged among themselves.
    """
    offsets: dict[str, int] = {}
    done: set[str] = set()
    while True:
        batch = []
        for entry in sorted(store.jobs_dir.iterdir()):
            if entry.name in done or not entry.is_dir():
                continue
            offset = offsets.get(entry.name, 0)
            path = store.events_path(entry.name)
            for offset, records in read_blocks(path, offset):
                for _, _, record in records:
                    batch.append(record)
                    if record.get("type") in _TERMINAL:
                        done.add(entry.name)
            offsets[entry.name] = offset
        batch.sort(key=_merge_key)
        yield from batch
        if not follow or (should_stop is not None and should_stop()):
            return
        time.sleep(poll_interval)


class EventBus:
    """Publish one job's run events to its log.

    Every published record carries a monotonic per-job ``seq`` (resumed
    workers continue where the previous attempt's log ends), giving
    downstream consumers — the warehouse ingester above all — a stable
    dedup key.  Readers that predate ``seq`` simply ignore it.
    """

    def __init__(self, store: "JobStore", job_id: str) -> None:
        self.job_id = job_id
        self.events_path = store.events_path(job_id)
        self._seq = next_seq(self.events_path)
        # A killed attempt's torn last line: the first publish ends it.
        self._lead = b"\n" if torn(self.events_path) else b""

    def publish(self, event: RunEvent) -> dict:
        """Serialize, stamp (job id + seq + wall time), append to the log."""
        record = event_to_dict(event)
        record["job"] = self.job_id
        record["ts"] = round(time.time(), 3)
        self.publish_record(record)
        return record

    def publish_record(self, record: dict) -> None:
        """Stamp ``seq``, serialise, append to the job's log in one write."""
        record.setdefault("seq", self._seq)
        self._seq = record["seq"] + 1
        append(self.events_path, self._lead + dumps_line(record).encode())
        self._lead = b""
