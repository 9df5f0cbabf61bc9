"""Checkpoint/resume: one append-only state log per run.

After every completed iteration the :class:`~repro.api.experiment.Experiment`
appends one line to ``<checkpoint_dir>/state.ndjson``: the iteration's
``IterationStats`` (its index and released centroids), the spent budget,
``converged`` and the state of the run's two cross-iteration streams
(``noise_rng``'s bit-generator state, ``crypto_rng.getstate()``).  The spec
rides in the first line and is compared on resume.  A line holds one
iteration, so the log grows linearly.

Resuming replays nothing: ``ChiaroscuroRun`` re-derives the keypair and the
fixed-base table from the seed, both streams are restored from the last
complete line (a torn tail means the previous iteration), and the loop
re-enters at ``iteration + 1`` — bit-identical to an uninterrupted run on
every plane, ciphertexts included.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

from ..core.results import IterationStats
from ..ndjson import append, dumps_line, fsync_dir, read_events

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "STATE_LOG",
    "atomic_write_text",
    "sweep_stale_tmps",
]


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename).

    The tmp name embeds the writer's pid, so two processes sharing a
    directory never race on the same tmp path; the data is fsynced before
    the rename (and the directory after it), so a crash right after
    ``atomic_write_text`` returns cannot lose the new contents — the
    invariant a service job's ``result.json`` and a rewritten checkpoint
    state log build their kill-safety on.
    """
    path = pathlib.Path(path)
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)  # make the rename itself durable
    return path


def _tmp_writer_alive(entry: pathlib.Path) -> bool:
    """Whether the pid embedded in ``<name>.<pid>.tmp`` is a live process."""
    parts = entry.name.split(".")
    if len(parts) < 3 or not parts[-2].isdecimal():
        return False  # foreign/legacy tmp name: nobody owns it
    pid = int(parts[-2])
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def sweep_stale_tmps(
    directory: str | pathlib.Path,
    pattern: str = "*.tmp",
    only_stale: bool = True,
) -> int:
    """Remove leftover ``atomic_write_text`` tmps matching ``pattern``.

    With ``only_stale`` a tmp whose embedded pid is still alive is kept —
    its writer may be mid-write in a shared directory.  Returns the number
    of files removed.  Every store built on :func:`atomic_write_text`
    (checkpoint state logs, service job results) sweeps through here.
    """
    removed = 0
    for entry in pathlib.Path(directory).glob(pattern):
        if only_stale and _tmp_writer_alive(entry):
            continue
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - lost a delete race
            pass
    return removed


#: The state log's file name inside a checkpoint directory.
STATE_LOG = "state.ndjson"
_FORMAT = "chiaroscuro-state/v1"


@dataclass
class Checkpoint:
    """The resumable state after one iteration: one line of the state log."""

    stats: IterationStats  # the iteration's: its index and released centroids
    epsilon_spent: float  # the run's total after it
    converged: bool  # θ-test fired at this iteration: do not resume past it
    rng_state: dict  # noise_rng's bit-generator state
    crypto_state: tuple  # crypto_rng.getstate()
    spec: dict | None = None  # RunSpec.to_dict(), in the log's first record

    def to_line(self) -> str:
        record = {"format": _FORMAT, **vars(self), "stats": self.stats.to_dict()}
        if self.spec is None:
            del record["spec"]
        return dumps_line(record)

    @classmethod
    def from_dict(cls, d: dict) -> "Checkpoint":
        if d.get("format") != _FORMAT:
            raise ValueError(f"unsupported state record format {d.get('format')!r}")
        version, words, gauss = d["crypto_state"]  # JSON made its tuples lists
        return cls(
            stats=IterationStats.from_dict(d["stats"]),
            epsilon_spent=d["epsilon_spent"],
            converged=d["converged"],
            rng_state=d["rng_state"],
            crypto_state=(version, tuple(words), gauss),
            spec=d.get("spec"),
        )


class CheckpointStore:
    """One run's append-only state log in ``directory``."""

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / STATE_LOG

    def records(self) -> list[Checkpoint]:
        """The run so far, one record per completed iteration: every
        complete line of the log (a torn tail is left out; no log, none)."""
        return [Checkpoint.from_dict(record) for record in read_events(self.path)]

    def start(self, records: list[Checkpoint]) -> None:
        """Make the log hold exactly ``records`` (none: a fresh run).

        A log that already does — or no log for a fresh run, which its
        first :meth:`save` creates — is left as it is.  Anything else (a
        torn tail, another run's records) is replaced in one atomic write,
        so a kill here leaves the old log or the new one, never a torn
        tail or another run's records ahead of this run's."""
        sweep_stale_tmps(self.directory)
        text = "".join(r.to_line() for r in records)
        try:
            if self.path.read_bytes() == text.encode():
                return
        except FileNotFoundError:
            if not records:
                return
        atomic_write_text(self.path, text)

    def save(self, checkpoint: Checkpoint) -> pathlib.Path:
        """Append one record, durable (fsynced, with the log's directory
        entry when this save created it) before this returns."""
        append(self.path, checkpoint.to_line().encode(), durable=True)
        return self.path
