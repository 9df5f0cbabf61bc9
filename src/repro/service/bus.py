"""NDJSON event bus: per-job logs plus one tailable combined feed.

Workers are separate processes, so the bus is the filesystem: each
published event is appended as one newline-terminated JSON object to the
job's own ``events.ndjson`` *and* to the root-level ``feed.ndjson``.
Appends are a single ``os.write`` on an ``O_APPEND`` descriptor — the
POSIX guarantee that concurrent appenders never interleave within a line
is what makes the combined feed safe without any locking.

Readers are tolerant by construction: a SIGKILL can truncate the last
line mid-byte, so every reader — the warehouse's ingest included — goes
through :func:`read_blocks` (the job's durable state lives in
``job.json`` and its checkpoint state log, never in the event logs).
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

__all__ = [
    "BLOCK_BYTES",
    "EventBus",
    "append_ndjson",
    "next_seq",
    "read_blocks",
    "read_events",
    "tail_events",
]

_COMPACT = (",", ":")


def _ndjson_line(record: dict) -> bytes:
    """``record`` as one newline-terminated line of strict JSON.

    A non-finite float (an ``agreement`` of NaN after a degenerate
    decode) is written as ``null`` — Python's bare ``NaN``/``Infinity``
    are rejected by ``jq`` and sqlite's JSON functions.
    """
    try:
        text = json.dumps(record, separators=_COMPACT, allow_nan=False)
    except ValueError:  # a non-finite float: re-read it the way the reader does
        lenient = json.dumps(record, separators=_COMPACT)
        strict = json.loads(lenient, parse_constant=lambda constant: None)
        text = json.dumps(strict, separators=_COMPACT, allow_nan=False)
    return (text + "\n").encode()


def _append(path: str | pathlib.Path, data: bytes, durable: bool = False) -> None:
    """One atomic ``O_APPEND`` write (opened per write: rotation-safe);
    ``durable`` fsyncs it before returning (the checkpoint state log)."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)


def append_ndjson(path: str | pathlib.Path, record: dict) -> None:
    """Append one JSON object as a single atomic ``O_APPEND`` write."""
    _append(path, _ndjson_line(record))


#: Bytes per read of an NDJSON log.  One block's complete lines are
#: parsed and handed on as one batch, so this bounds what a reader holds
#: in memory whatever the log's length: ~250 event lines, past which
#: larger batches bought the warehouse ingest no speed and cost resident
#: memory.
BLOCK_BYTES = 1 << 16


def read_blocks(
    path: str | pathlib.Path, offset: int
) -> Iterator[tuple[int, list[tuple[int, str, dict]]]]:
    """The one NDJSON reader: ``(watermark, records)`` per block read.

    ``records`` are the ``(line_offset, line, record)`` of the block's
    complete lines past ``offset`` that hold a JSON object, each parsed
    exactly once; ``watermark`` is the offset just past the block's last
    complete line.  The rules every consumer inherits:

    * lines end at ``b"\n"`` only (``bytes.splitlines`` would also break
      on a bare ``\r``), and an incomplete tail (no newline yet — a
      writer is mid-append or was killed there) is never yielded: it
      stays pending until its newline arrives;
    * a complete line that is not UTF-8 JSON, or not an object (a torn
      write glued to the next append, a foreign writer), is skipped but
      still advances the watermark (it will never become decodable);
    * ``line`` is the text as written, which is what the warehouse's
      ``events.payload`` stores.  Only a line carrying a non-finite
      constant (``NaN``, ``±Infinity`` — logs older than the writer's
      ``null`` rule hold them, ``jq`` and sqlite's JSON functions reject
      them) is re-serialised, with ``null`` in their place;
    * a missing file has no blocks.
    """
    nonfinite: list[str] = []  # the constants the current line carried
    decode = json.JSONDecoder(parse_constant=nonfinite.append).decode
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(offset)
        tail = b""
        while block := fh.read(BLOCK_BYTES):
            lines = (tail + block).split(b"\n")
            tail = lines.pop()
            records = []
            for raw in lines:
                line_offset = offset
                offset += len(raw) + 1
                nonfinite.clear()
                try:
                    line = raw.decode()
                    record = decode(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if nonfinite:
                    line = json.dumps(record, separators=_COMPACT)
                records.append((line_offset, line, record))
            if lines:
                yield offset, records


def read_events(path: str | pathlib.Path) -> list[dict]:
    """All records in an NDJSON file (missing file = empty)."""
    return list(tail_events(path))


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
        for offset, records in read_blocks(path, offset):
            for _, _, record in records:
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
        data = _ndjson_line(record)
        _append(self.events_path, data)
        _append(self.feed_path, data)
