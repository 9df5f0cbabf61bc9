"""Scheduler: run queued jobs in worker processes, survive crashes.

The control loop is deliberately small — the durable truth lives in the
:class:`~repro.service.store.JobStore`, so the scheduler only has to

1. **recover** at startup: flip crash-marked ``running`` jobs back to
   ``queued`` (their checkpoints make the re-run a resume);
2. **launch**: claim queued jobs oldest-first and fork one worker
   process each (:func:`repro.service.worker.main`), up to ``max_workers``;
3. **reap**: when a worker exits without having recorded an outcome
   (killed, OOM, segfault — ``job.json`` still says ``running``), either
   re-enqueue it for another attempt or fail it once ``max_attempts`` is
   exhausted (a hard-crashing spec must not loop forever);
4. **wait** on the workers' exit sentinels, so a finished job is reaped
   and the next one launched at once; ``poll_interval`` is only the
   timeout of that wait — the tick for noticing new submissions.

SIGKILL-ing the whole server process group at any instant is therefore
recoverable by construction: nothing in the loop holds state that is not
re-derivable from the store at the next startup.

Workers are *forks* of this process, which already holds the imported
package (a fresh interpreter spent ~0.2 s importing it for ~12 ms of
protocol work).  Still one OS process per job — same crash isolation, same
``kill -9``/requeue/``max_attempts`` semantics — under three properties:

* the child leaves through ``os._exit`` (multiprocessing's fork launcher):
  no ``atexit`` hook or test-runner teardown inherited from the parent
  ever runs in a worker;
* results do not depend on inherited state: each worker makes its own
  bigint/crypto-backend selection from the spec, and no module-global RNG
  is consulted (the ``determinism-rng`` lint rule);
* the scheduler process is single-threaded when it forks — ``repro
  serve`` and ``run_batch`` are.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from multiprocessing.connection import wait

# Imported here, once, because every job would otherwise import them
# lazily in its own child (~20 ms per job): a fork repeats no import.
import numpy.random  # noqa: F401
from .. import faults  # noqa: F401
from . import worker
from .bus import EventBus
from .store import Job, JobState, JobStore

__all__ = ["Scheduler"]


def _exit_reason(code: int) -> str:
    """``exitcode`` in words; negative means killed by that signal."""
    if code >= 0:
        return f"exited with code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:  # pragma: no cover - a signal without a name
        return f"killed by signal {-code}"


class Scheduler:
    """Execute a :class:`JobStore`'s queue, ``max_workers`` jobs at a time.

    ``max_workers`` is the number of concurrently forked worker processes;
    construct and drive the scheduler from a single-threaded process.
    """

    def __init__(
        self,
        store: JobStore,
        max_workers: int = 4,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.store = store
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self._workers: dict[str, multiprocessing.Process] = {}
        # Jobs observed in a terminal state: never re-read (see step()).
        self._terminal: set[str] = set()

    # ------------------------------------------------------------ lifecycle

    def recover(self) -> list[Job]:
        """Re-enqueue crash-marked jobs (call once, before scheduling)."""
        return self.store.recover()

    def step(self) -> bool:
        """One reap-and-launch pass; True while any work remains.

        The queue is scanned once per tick, and jobs already observed in
        a terminal state are skipped without re-reading their records (a
        long-lived root accumulates completed jobs; re-parsing immutable
        history every poll would make the idle loop O(all jobs ever)).
        """
        self._reap()
        active = self.store.jobs(skip=self._terminal)
        self._terminal.update(
            job.job_id
            for job in active
            if job.state in (JobState.COMPLETED, JobState.FAILED)
        )
        queued = [job for job in active if job.state == JobState.QUEUED]
        for job in queued:
            if len(self._workers) >= self.max_workers:
                break
            claimed = self.store.claim(job)
            proc = multiprocessing.get_context("fork").Process(
                target=worker.main, args=(self.store, claimed)
            )
            proc.start()
            self._workers[claimed.job_id] = proc
        return bool(self._workers) or bool(queued)

    def drain(self, timeout: float | None = None) -> list[Job]:
        """Run until the queue is empty and every worker has exited.

        Returns the final job records.  Raises ``TimeoutError`` if a
        ``timeout`` (seconds) elapses first — workers are then terminated
        so their jobs recover on the next start.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.step():
            if deadline is not None and time.monotonic() > deadline:
                self.shutdown()
                raise TimeoutError(
                    f"drain exceeded {timeout} s with jobs still pending"
                )
            self._wait()
        return self.store.jobs()

    def run_forever(self) -> None:
        """Serve until interrupted (the ``repro serve`` foreground loop)."""
        try:
            while True:
                self.step()
                self._wait()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Terminate outstanding workers; their jobs recover on restart."""
        for proc in self._workers.values():
            proc.terminate()
        for proc in self._workers.values():
            proc.join(timeout=5)
            if proc.exitcode is None:  # pragma: no cover - stuck child
                proc.kill()
                proc.join()
            proc.close()
        self._workers.clear()

    # ------------------------------------------------------------ internals

    def _wait(self) -> None:
        """Sleep until a worker exits, at most ``poll_interval``."""
        wait(
            [proc.sentinel for proc in self._workers.values()],
            timeout=self.poll_interval,
        )

    def _reap(self) -> None:
        for job_id, proc in list(self._workers.items()):
            code = proc.exitcode
            if code is None:
                continue
            del self._workers[job_id]
            proc.close()
            job = self.store.get(job_id)
            if job.state not in (JobState.COMPLETED, JobState.FAILED):
                # The worker died without recording an outcome (signal,
                # interpreter abort).  Its checkpoints are intact, so give
                # the job another attempt unless it keeps crashing.
                if job.attempts >= self.max_attempts:
                    # The worker published no terminal marker of its own.
                    worker.fail_job(
                        self.store,
                        EventBus(self.store, job_id),
                        f"worker {_exit_reason(code)} ({job.attempts} attempts)",
                    )
                else:
                    self.store.update(job_id, state=JobState.QUEUED)
