"""The NDJSON line format every log of the repo shares.

One newline-terminated JSON object per line, appended with a single
``os.write`` on an ``O_APPEND`` descriptor: the service's job lifecycle
logs (:mod:`repro.service.store`) and event logs
(:mod:`repro.service.bus`), a run's checkpoint state log
(:mod:`repro.api.checkpoint`) and the warehouse's ingest
(:mod:`repro.warehouse.ingest`) write and read through here, so the
writer's ``null`` rule and the reader's torn-tail rule hold for all of
them.  Standard library only: a run that checkpoints loads nothing else.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Iterator

__all__ = [
    "BLOCK_BYTES", "append", "dumps_line", "fold", "fsync_dir", "read_blocks",
    "read_events", "tail_events", "torn",
]

_COMPACT = (",", ":")


def dumps_line(record: dict) -> str:
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
    return text + "\n"


def fsync_dir(directory: str | pathlib.Path) -> None:
    """Make the entries of ``directory`` durable (a file created or renamed
    into it); best-effort off POSIX."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append(path: str | pathlib.Path, data: bytes, durable: bool = False) -> None:
    """One atomic ``O_APPEND`` write (opened per write: rotation-safe).

    ``durable`` fsyncs it before returning, and the directory too when
    this write created the file (job lifecycle logs, checkpoint state
    logs): once it returns, a crash can lose neither the line nor the file.
    """
    flags = os.O_WRONLY | os.O_APPEND
    try:
        fd, created = os.open(path, flags), False
    except FileNotFoundError:
        fd, created = os.open(path, flags | os.O_CREAT, 0o644), True
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    if durable and created:
        fsync_dir(pathlib.Path(path).parent)


def torn(path: str | pathlib.Path) -> bool:
    """Whether ``path`` ends inside a line: the tail of a writer killed
    mid-append, which readers skip.  The next writer ends it (a leading
    ``\n``) rather than glue its own line to it."""
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            return size > 0 and os.pread(fh.fileno(), 1, size - 1) != b"\n"
    except FileNotFoundError:
        return False


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


def fold(
    path: str | pathlib.Path, legacy: str | pathlib.Path | None = None
) -> dict | None:
    """A lifecycle log's state: its first record with every later complete
    record's keys laid over it, in order (``None``: no record yet).

    ``legacy`` names a JSON document read, when it exists, as the first
    record: state written whole before its log existed, which the log's
    lines then change.  The torn-tail rule is :func:`read_blocks`'s.
    """
    state = None
    if legacy is not None:
        try:
            state = json.loads(pathlib.Path(legacy).read_bytes())
        except FileNotFoundError:
            pass
    for _, records in read_blocks(path, 0):
        for _, _, record in records:
            state = record if state is None else state | record
    return state


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
