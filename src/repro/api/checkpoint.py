"""Checkpoint/resume: survive a killed run without losing iterations.

After every completed iteration on a checkpointable plane, the
:class:`~repro.api.experiment.Experiment` serializes everything the next
iteration depends on — the released centroids, the iteration index, the
spent budget, the plane RNG state and the full per-iteration history — as
one JSON file in a checkpoint directory.  Resuming replays nothing: the
loop re-enters at ``iteration + 1`` with the restored RNG state, so a
resumed seeded run is bit-identical to an uninterrupted one (asserted by
``tests/api/test_checkpoint.py``).

RNG state travels as the ``numpy`` bit-generator state dict (PCG64: two
128-bit integers — JSON handles Python's arbitrary-precision ints
exactly).  The spec rides inside the checkpoint and is compared on
resume, so a checkpoint can never silently continue a *different*
experiment.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "atomic_write_text",
    "sweep_stale_tmps",
]

_PREFIX = "checkpoint_"


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename).

    The tmp name embeds the writer's pid, so two processes sharing a
    directory never race on the same tmp path; the data is fsynced before
    the rename (and the directory after it), so a crash right after
    ``atomic_write_text`` returns cannot lose the new contents — the
    invariant the checkpoint store and the service job store both build
    their kill-safety on.
    """
    path = pathlib.Path(path)
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # make the rename itself durable; best-effort off POSIX
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return path
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
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
    (checkpoints, service job records) sweeps through here.
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


@dataclass
class Checkpoint:
    """The complete resumable state after one iteration."""

    spec: dict  # RunSpec.to_dict() of the run that wrote it
    plane: str
    iteration: int  # last *completed* iteration (1-indexed)
    centroids: list  # released centroids after that iteration
    epsilon_spent: float
    rng_state: dict  # numpy bit-generator state (plane-specific stream)
    history: list = field(default_factory=list)  # IterationStats.to_dict() each
    converged: bool = False  # θ-test fired at this iteration: do not resume past it

    def to_json(self) -> str:
        """The format tag, then every field under its own name, in order."""
        return json.dumps({"format": "chiaroscuro-checkpoint/v1", **vars(self)})

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        d = json.loads(text)
        fmt = d.get("format", "chiaroscuro-checkpoint/v1")
        if fmt != "chiaroscuro-checkpoint/v1":
            raise ValueError(f"unsupported checkpoint format {fmt!r}")
        return cls(
            spec=d["spec"],
            plane=d["plane"],
            iteration=int(d["iteration"]),
            centroids=d["centroids"],
            epsilon_spent=float(d["epsilon_spent"]),
            rng_state=d["rng_state"],
            history=d.get("history", []),
            converged=bool(d.get("converged", False)),
        )


class CheckpointStore:
    """One directory of ``checkpoint_<iteration>.json`` files."""

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sweep_tmps()

    def path_for(self, iteration: int) -> pathlib.Path:
        return self.directory / f"{_PREFIX}{iteration:06d}.json"

    def save(self, checkpoint: Checkpoint) -> pathlib.Path:
        """Write atomically and durably: a kill mid-write never corrupts
        the latest resumable state (pid-unique tmp + fsync + rename)."""
        return atomic_write_text(
            self.path_for(checkpoint.iteration), checkpoint.to_json() + "\n"
        )

    def sweep_tmps(self, only_stale: bool = True) -> int:
        """Remove leftover ``checkpoint_*.tmp`` files from killed writers.

        With ``only_stale`` (the init-time default) a tmp whose embedded
        pid is still a live process is left alone — another run may be
        mid-write in a shared directory; ``clear()`` sweeps everything.
        """
        return sweep_stale_tmps(
            self.directory, f"{_PREFIX}*.tmp", only_stale=only_stale
        )

    def iterations(self) -> list[int]:
        out = []
        for entry in self.directory.glob(f"{_PREFIX}*.json"):
            stem = entry.stem[len(_PREFIX) :]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def latest(self) -> Checkpoint | None:
        iterations = self.iterations()
        if not iterations:
            return None
        return Checkpoint.from_json(self.path_for(iterations[-1]).read_text())

    def clear(self) -> None:
        for iteration in self.iterations():
            self.path_for(iteration).unlink()
        self.sweep_tmps(only_stale=False)
