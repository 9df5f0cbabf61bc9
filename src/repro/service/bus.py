"""NDJSON event bus: per-job logs plus one tailable combined feed.

Workers are separate processes, so the bus is the filesystem: each
published event is appended as one newline-terminated JSON object to the
job's own ``events.ndjson`` *and* to the root-level ``feed.ndjson``.
Appends are a single ``os.write`` on an ``O_APPEND`` descriptor — the
POSIX guarantee that concurrent appenders never interleave within a line
is what makes the combined feed safe without any locking.

Readers are tolerant by construction: a SIGKILL can truncate the last
line mid-byte, so every reader goes through :func:`_object_lines` (the
job's durable state lives in ``job.json``/checkpoints, never in the logs).
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


def _object_lines(
    path: str | pathlib.Path, offset: int = 0
) -> Iterator[tuple[int, dict]]:
    """The one reader: ``(end_offset, record)`` for every complete line past
    ``offset`` that holds a JSON object.

    The rules every reader below inherits (the warehouse's block reader,
    ``warehouse.ingest._read_blocks``, keeps the same ones):

    * a line ends at ``b"\n"``; an incomplete tail (a writer is mid-append
      or was killed there) is never yielded — it stays pending until its
      newline arrives;
    * a complete line that is not UTF-8 JSON, or not an object (a torn
      write glued to the next append, a foreign writer), is skipped;
    * a missing file has no lines.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(offset)
        for line in fh:
            if not line.endswith(b"\n"):
                return
            offset += len(line)
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield offset, record


def read_events(path: str | pathlib.Path) -> list[dict]:
    """All records in an NDJSON file (missing file = empty)."""
    return [record for _, record in _object_lines(path)]


def tail_events(
    path: str | pathlib.Path,
    follow: bool = False,
    poll_interval: float = 0.2,
    should_stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Yield records from an NDJSON file, optionally following appends.

    With ``follow``, keeps polling for new complete lines until
    ``should_stop()`` turns true.
    """
    offset = 0
    while True:
        for offset, record in _object_lines(path, offset):
            yield record
        if not follow or (should_stop is not None and should_stop()):
            return
        time.sleep(poll_interval)


def next_seq(path: str | pathlib.Path) -> int:
    """The next monotonic ``seq`` for a job log at ``path``.

    Resumes continue the numbering: the successor of the highest ``seq``
    already on disk, or — for logs written before ``seq`` existed — the
    count of complete lines (skipped ones too), so old and new records
    never collide.  A torn tail's ``seq`` was never durably published.
    """
    highest = max(
        (
            record["seq"] for _, record in _object_lines(path)
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
        """Stamp ``seq`` and append (run events and lifecycle markers)."""
        record.setdefault("seq", self._seq)
        self._seq = record["seq"] + 1
        append_ndjson(self.events_path, record)
        append_ndjson(self.feed_path, record)
