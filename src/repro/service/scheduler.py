"""Scheduler: run queued jobs in worker processes, survive crashes.

The control loop is deliberately small — the durable truth lives in the
:class:`~repro.service.store.JobStore`, so the scheduler only has to

1. **recover** at startup: flip crash-marked ``running`` jobs back to
   ``queued`` (their checkpoints make the re-run a resume);
2. **hand off**: claim queued jobs oldest-first and send each over a pipe
   to an idle worker process (:func:`repro.service.worker.main`), forking
   one only when none is idle and fewer than ``max_workers`` exist;
3. **reap**: when a busy worker dies without answering (killed, OOM,
   segfault — ``job.json`` still says ``running``), either re-enqueue its
   job for another attempt or fail it once ``max_attempts`` is exhausted
   (a hard-crashing spec must not loop forever); an idle worker that died
   is dropped, and once nothing is queued or running the idle workers
   are released;
4. **wait** on the busy workers' pipe ends and exit sentinels, so a
   finished job frees its slot and the next one is handed off at once;
   ``poll_interval`` is only the timeout of that wait — the tick for
   noticing new submissions.

SIGKILL-ing the whole server process group at any instant is therefore
recoverable by construction: nothing in the loop holds state that is not
re-derivable from the store at the next startup.

Workers are *forks* of this process, which already holds the imported
package (a fresh interpreter spent ~0.2 s importing it for ~12 ms of
protocol work), and a worker lives for a busy period, running the jobs
it is handed in turn, so a batch of more jobs than slots forks once per
slot rather than once per job.  A job still runs in a process of its own
— same crash isolation, same ``kill -9``/requeue/``max_attempts``
semantics — under four properties:

* the child leaves through ``os._exit`` (multiprocessing's fork launcher):
  no ``atexit`` hook or test-runner teardown inherited from the parent
  ever runs in a worker;
* results depend neither on inherited state nor on the jobs a worker ran
  before: each job makes its own bigint/crypto-backend selection from the
  spec, and no module-global RNG is consulted (the ``determinism-rng``
  check in ``tests/invariants``);
* a worker closes the scheduler's ends of every pipe it inherited, so
  when the scheduler dies its pipes close and idle workers exit;
* the scheduler process is single-threaded when it forks — ``repro
  serve`` and ``run_batch`` are.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess

# numpy loads numpy.random on first use, which every run makes: imported
# here, once, so no forked worker pays it.  Nothing of repro is preloaded:
# a spec imports what it names while it resolves (repro.lazy), and _fork()
# resolves a job's spec before forking its worker.
import numpy.random  # noqa: F401
from ..api import RunSpec
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


def _serve(
    store: JobStore, conn: Connection, inherited: list[Connection]
) -> None:
    """A forked worker's entry: close the scheduler's pipe ends it
    inherited (its own peer included, so the pipe reads EOF once the
    scheduler is gone), then serve jobs until told to stop."""
    for end in inherited:
        end.close()
    worker.main(store, conn)


class Scheduler:
    """Execute a :class:`JobStore`'s queue, ``max_workers`` jobs at a time.

    ``max_workers`` is the number of worker processes forked at once (each
    runs its slot's jobs in turn); construct and drive the scheduler from
    a single-threaded process.
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
        # Busy workers by the job they run; idle ones wait for a hand-off.
        self._workers: dict[str, BaseProcess] = {}
        self._idle: list[BaseProcess] = []
        # The scheduler's end of each live worker's pipe.
        self._pipes: dict[BaseProcess, Connection] = {}
        # Jobs observed in a terminal state: never re-read (see step()).
        self._terminal: set[str] = set()

    # ------------------------------------------------------------ lifecycle

    def recover(self) -> list[Job]:
        """Re-enqueue crash-marked jobs (call once, before scheduling)."""
        return self.store.recover()

    def step(self) -> bool:
        """One reap-and-hand-off pass; True while any work remains.

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
            proc = self._idle.pop() if self._idle else self._fork(job)
            claimed = self.store.claim(job)
            self._workers[claimed.job_id] = proc
            try:
                self._pipes[proc].send(claimed)
            except ConnectionError:
                # The worker died after _reap looked: a crash like any other.
                self._crashed(claimed.job_id)
        if not self._workers:
            self._release_idle()
        return bool(self._workers) or bool(queued)

    def drain(self, timeout: float | None = None) -> list[Job]:
        """Run until the queue is empty and every worker has exited.

        Returns the final job records.  Raises ``TimeoutError`` if a
        ``timeout`` (seconds) elapses first — workers are then terminated
        so their jobs recover on the next start, as on any other error
        (an idle worker left behind would block the interpreter's exit).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while self.step():
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"drain exceeded {timeout} s with jobs still pending"
                    )
                self._wait()
        except BaseException:
            self.shutdown()
            raise
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
        """Terminate every worker; the jobs they ran recover on restart."""
        procs = list(self._pipes)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if proc.exitcode is None:  # pragma: no cover - stuck child
                proc.kill()
            self._retire(proc)
        self._workers.clear()
        self._idle.clear()

    # ------------------------------------------------------------ internals

    def _fork(self, job: Job) -> BaseProcess:
        """Fork a worker for ``job``.  Its spec is resolved here first, so
        the worker inherits what the spec imports (repro.lazy) and this
        long-lived process pays each substrate once; a worker forked
        earlier imports it on its first such job."""
        try:
            RunSpec.from_dict(job.spec)
        except Exception:  # noqa: BLE001 - the worker fails the job with it
            pass
        ours, theirs = multiprocessing.Pipe()
        proc = multiprocessing.get_context("fork").Process(
            target=_serve,
            args=(self.store, theirs, [*self._pipes.values(), ours]),
        )
        proc.start()
        theirs.close()
        self._pipes[proc] = ours
        return proc

    def _retire(self, proc: BaseProcess) -> int:
        """Join an exiting worker and forget it; returns its exit code."""
        proc.join()
        code = proc.exitcode
        self._pipes.pop(proc).close()
        proc.close()
        return code

    def _release_idle(self) -> None:
        """Stop the idle workers: each returns on ``None`` and exits."""
        for proc in self._idle:
            try:
                self._pipes[proc].send(None)
            except ConnectionError:
                pass  # already gone
        for proc in self._idle:
            self._retire(proc)
        self._idle.clear()

    def _wait(self) -> None:
        """Sleep until a busy worker answers or dies, at most
        ``poll_interval``."""
        wait(
            [
                handle
                for proc in self._workers.values()
                for handle in (self._pipes[proc], proc.sentinel)
            ],
            timeout=self.poll_interval,
        )

    def _reap(self) -> None:
        """Free the slot of every worker that answered, take every busy
        worker that died through the crash path, drop dead idle ones."""
        ready = set(wait(
            [*self._pipes.values(), *(proc.sentinel for proc in self._pipes)],
            timeout=0,
        ))
        for job_id, proc in list(self._workers.items()):
            conn = self._pipes[proc]
            if conn in ready:
                try:
                    conn.recv()  # the exit code; the outcome is in job.json
                except (EOFError, ConnectionError):  # died before answering
                    self._crashed(job_id)
                else:
                    del self._workers[job_id]
                    self._idle.append(proc)
            elif proc.sentinel in ready:
                self._crashed(job_id)
        for proc in [p for p in self._idle if p.sentinel in ready]:
            self._idle.remove(proc)
            self._retire(proc)

    def _crashed(self, job_id: str) -> None:
        """A worker died without answering for ``job_id``."""
        code = self._retire(self._workers.pop(job_id))
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
