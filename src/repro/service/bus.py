"""NDJSON event bus: per-job logs plus one tailable combined feed.

Workers are separate processes, so the bus is the filesystem: each
published event is appended as one newline-terminated JSON object to the
job's own ``events.ndjson`` *and* to the root-level ``feed.ndjson``.
Appends are a single ``os.write`` on an ``O_APPEND`` descriptor — the
POSIX guarantee that concurrent appenders never interleave within a line
is what makes the combined feed safe without any locking.

Readers are tolerant by construction: a SIGKILL can truncate the last
line mid-byte, so :func:`read_events` silently drops undecodable lines
(the job's durable state lives in ``job.json``/checkpoints, never in the
logs).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import TYPE_CHECKING, Callable, Iterator

from ..api.events import RunEvent, event_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import JobStore

__all__ = ["EventBus", "append_ndjson", "next_seq", "read_events", "tail_events"]


def append_ndjson(path: str | pathlib.Path, record: dict) -> None:
    """Append one JSON object as a single atomic ``O_APPEND`` write.

    The line is strict JSON: a non-finite float (an ``agreement`` of NaN
    after a degenerate decode) is written as ``null`` — Python's bare
    ``NaN``/``Infinity`` are rejected by ``jq`` and sqlite's JSON functions.
    """
    compact = (",", ":")
    try:
        text = json.dumps(record, separators=compact, allow_nan=False)
    except ValueError:  # a non-finite float: re-read it the way ingest does
        lenient = json.dumps(record, separators=compact)
        strict = json.loads(lenient, parse_constant=lambda constant: None)
        text = json.dumps(strict, separators=compact, allow_nan=False)
    data = (text + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_events(path: str | pathlib.Path) -> list[dict]:
    """All decodable records in an NDJSON file (missing file = empty)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    records = []
    with open(path, "rb") as fh:
        for line in fh:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn tail from a kill mid-append
    return records


def tail_events(
    path: str | pathlib.Path,
    follow: bool = False,
    poll_interval: float = 0.2,
    should_stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Yield records from an NDJSON file, optionally following appends.

    With ``follow``, keeps polling for new complete lines until
    ``should_stop()`` turns true (a partial final line is left pending
    until its newline arrives).
    """
    path = pathlib.Path(path)
    offset = 0
    while True:
        if path.exists():
            with open(path, "rb") as fh:
                fh.seek(offset)
                while True:
                    line = fh.readline()
                    if not line.endswith(b"\n"):
                        break  # incomplete tail: re-read next poll
                    offset = fh.tell()
                    try:
                        yield json.loads(line)
                    except ValueError:
                        continue
        if not follow or (should_stop is not None and should_stop()):
            return
        time.sleep(poll_interval)


def next_seq(path: str | pathlib.Path) -> int:
    """The next monotonic ``seq`` for a job log at ``path``.

    Resumes continue the numbering: the successor of the highest ``seq``
    already on disk, or — for logs written before ``seq`` existed — the
    count of complete lines, so old and new records never collide.
    Torn tails and undecodable lines are skipped, consistent with
    :func:`read_events`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return 0
    highest = -1
    lines = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail: its seq was never durably published
            lines += 1
            try:
                record = json.loads(line)
            except ValueError:
                continue
            seq = record.get("seq") if isinstance(record, dict) else None
            if isinstance(seq, int) and not isinstance(seq, bool):
                highest = max(highest, seq)
    return highest + 1 if highest >= 0 else lines


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
        """Stamp ``seq`` and append (run events and lifecycle markers)."""
        record.setdefault("seq", self._seq)
        self._seq = record["seq"] + 1
        append_ndjson(self.events_path, record)
        append_ndjson(self.feed_path, record)
