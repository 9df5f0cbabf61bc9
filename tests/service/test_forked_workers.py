"""Forked workers: what the scheduler promises about the processes it
forks from itself — a finished job is reaped at once (not at the next
poll tick), a killed worker is named and its job requeued, no child
outlives ``drain``/``shutdown`` (nor, idle, the scheduler itself), a
worker forked once serves its slot's jobs in turn without handing a job
to a dead one, and nothing the parent process or an earlier job happens
to hold (bigint selection, global RNG state) reaches a job's result.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.context
import os
import random
import signal
import subprocess
import sys
import time

from multiprocessing.connection import wait

import numpy as np
import pytest

from _helpers import small_spec
from repro.api import Experiment, RunSpec, run_record
from repro.crypto import bigint
from repro.crypto.backend import ProcessPoolBackend
from repro.service import JobState, JobStore, Scheduler, read_events, run_batch
from repro.service import scheduler as scheduler_module

DRAIN_TIMEOUT = 120.0


def inline_result(spec: RunSpec) -> dict:
    """The ``result`` block of the spec's record, run in this process."""
    result = Experiment.from_spec(spec).run()
    return json.loads(json.dumps(run_record(spec, result)["result"]))


def crypto_spec(plane: str, participants: int, **params) -> RunSpec:
    return RunSpec.from_dict({
        "name": f"svc-test-{plane}",
        "plane": plane,
        "seed": 5,
        "strategy": "UF2",
        "dataset": {"kind": "points2d",
                    "params": {"n_clusters": 2,
                               "points_per_cluster": participants // 2,
                               "duplications": 1}},
        "init": {"kind": "sample"},
        "params": {"k": 2, "max_iterations": 2, "exchanges": 8,
                   "key_bits": 128, "tau_fraction": 0.2, "epsilon": 2000.0,
                   "theta": 0.0, **params},
    })


def long_spec(seed: int) -> RunSpec:
    """~1 s of work: still mid-run when the test reaches for its worker."""
    return small_spec(seed, max_iterations=10, n_series=20_000)


def kill_worker(scheduler: Scheduler, job_id: str) -> None:
    proc = scheduler._workers[job_id]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(10)


class TestReaping:
    def test_drain_wakes_on_worker_exit_not_on_the_poll_tick(self, tmp_path):
        """Three jobs through one slot with a 5 s tick: sleeping the tick
        between jobs would take 10 s+; waiting on the sentinels takes the
        jobs' own time."""
        store = JobStore(tmp_path / "root")
        jobs = [store.submit(small_spec(seed)) for seed in range(3)]
        scheduler = Scheduler(store, max_workers=1, poll_interval=5)
        started = time.monotonic()
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        assert time.monotonic() - started < 2.0
        assert [store.get(job.job_id).state for job in jobs] == (
            [JobState.COMPLETED] * 3
        )

    def test_no_child_outlives_drain_or_shutdown(self, tmp_path):
        store = JobStore(tmp_path / "root")
        store.submit(small_spec(1))
        scheduler = Scheduler(store, max_workers=1, poll_interval=0.05)
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        assert multiprocessing.active_children() == []

        # A long job, shut down mid-flight: it stays a crash marker.
        long_job = store.submit(long_spec(2))
        assert scheduler.step()
        worker_pid = scheduler._workers[long_job.job_id].pid
        assert worker_pid != os.getpid()
        scheduler.shutdown()
        assert scheduler._workers == {}
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):
            os.kill(worker_pid, 0)  # reaped, not a zombie
        assert store.get(long_job.job_id).state == JobState.RUNNING


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan's corpse
    waits for whoever reaps it, which need not be this process)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def count_forks(monkeypatch) -> list[int]:
    """Patch ``ForkProcess.start`` to record each fork's pid."""
    pids: list[int] = []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(self):
        real_start(self)
        pids.append(self.pid)

    monkeypatch.setattr(
        multiprocessing.context.ForkProcess, "start", counting_start
    )
    return pids


def step_until(scheduler: Scheduler, done, timeout: float = DRAIN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while not done():
        assert time.monotonic() < deadline, "scheduler made no progress"
        scheduler._wait()
        scheduler.step()


@pytest.fixture
def idle_after_short_job(tmp_path):
    """Two slots, a long and a short job, stepped until the short job has
    answered: one worker busy, one idle.  Yields the pieces; a test that
    fails mid-way leaves no worker behind to block the session's exit."""
    store = JobStore(tmp_path / "root")
    long_job = store.submit(long_spec(11))
    short_job = store.submit(small_spec(12))
    scheduler = Scheduler(store, max_workers=2, poll_interval=0.05)
    try:
        assert scheduler.step()
        step_until(
            scheduler, lambda: short_job.job_id not in scheduler._workers
        )
        assert long_job.job_id in scheduler._workers, "the long job ended early"
        busy = scheduler._workers[long_job.job_id]
        [idle] = [
            p for p in multiprocessing.active_children() if p is not busy
        ]
        yield store, scheduler, long_job, idle
    finally:
        scheduler.shutdown()


class TestWorkerSlots:
    def test_one_fork_serves_a_slot_and_leaves_no_state_behind(
        self, tmp_path, monkeypatch
    ):
        """Three jobs, one slot, one fork: the quality, vectorized and
        128-bit object planes in turn each equal their inline run."""
        specs = [
            small_spec(21),
            small_spec(22, plane="vectorized"),
            crypto_spec("object", 12),
        ]
        expected = [inline_result(spec) for spec in specs]
        forks = count_forks(monkeypatch)
        records = run_batch(
            specs, tmp_path / "root", max_workers=1, timeout=DRAIN_TIMEOUT
        )
        assert len(forks) == 1
        assert [record["result"] for record in records] == expected
        assert multiprocessing.active_children() == []

    def test_a_failing_job_frees_its_slot_for_the_same_worker(self, tmp_path):
        store = JobStore(tmp_path / "root")
        bad_dict = small_spec(23).to_dict()
        bad_dict["dataset"]["params"]["bogus_knob"] = 1
        bad = store.submit(RunSpec.from_dict(bad_dict))
        good = store.submit(small_spec(24))
        scheduler = Scheduler(store, max_workers=1, poll_interval=0.05)
        try:
            assert scheduler.step()
            pid = scheduler._workers[bad.job_id].pid
            step_until(scheduler, lambda: good.job_id in scheduler._workers)
            assert scheduler._workers[good.job_id].pid == pid
            scheduler.drain(timeout=DRAIN_TIMEOUT)
        finally:
            scheduler.shutdown()
        failed = store.get(bad.job_id)
        assert (failed.state, failed.attempts) == (JobState.FAILED, 1)
        assert "bogus_knob" in failed.error
        assert store.get(good.job_id).state == JobState.COMPLETED
        assert multiprocessing.active_children() == []

    def test_drain_steps_once_per_answer_not_per_spin(
        self, tmp_path, monkeypatch
    ):
        """Each pass is woken by an answer: at most two per job plus two,
        however long the tick."""
        store = JobStore(tmp_path / "root")
        jobs = [store.submit(small_spec(seed)) for seed in range(3)]
        scheduler = Scheduler(store, max_workers=1, poll_interval=5)
        steps = []
        real_step = scheduler.step

        def counting_step():
            steps.append(time.monotonic())
            return real_step()

        monkeypatch.setattr(scheduler, "step", counting_step)
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        assert [store.get(job.job_id).state for job in jobs] == (
            [JobState.COMPLETED] * 3
        )
        assert len(steps) <= 2 * len(jobs) + 2


class TestDeadIdleWorker:
    def test_a_killed_idle_worker_is_never_handed_a_job(
        self, idle_after_short_job
    ):
        store, scheduler, long_job, idle = idle_after_short_job
        os.kill(idle.pid, signal.SIGKILL)
        assert wait([idle.sentinel], timeout=10)
        third = store.submit(small_spec(13))
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        done = store.get(third.job_id)
        assert (done.state, done.attempts) == (JobState.COMPLETED, 1)
        assert store.get(long_job.job_id).state == JobState.COMPLETED
        assert multiprocessing.active_children() == []

    def test_a_hand_off_to_a_worker_that_just_died_is_a_crash(
        self, idle_after_short_job, monkeypatch
    ):
        """The worker dies after the reap looked: the failed send takes the
        job through the crash path (requeued, the attempt counted)."""
        store, scheduler, long_job, idle = idle_after_short_job
        corpse = idle.sentinel
        os.kill(idle.pid, signal.SIGKILL)
        assert wait([corpse], timeout=10)
        real_wait = scheduler_module.wait

        def blind_to_the_corpse(handles, timeout=None):
            return real_wait([h for h in handles if h != corpse], timeout)

        monkeypatch.setattr(scheduler_module, "wait", blind_to_the_corpse)
        third = store.submit(small_spec(13))
        assert scheduler.step()
        monkeypatch.undo()  # the corpse's fd number is free for reuse now
        requeued = store.get(third.job_id)
        assert (requeued.state, requeued.attempts) == (JobState.QUEUED, 1)
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        done = store.get(third.job_id)
        assert (done.state, done.attempts) == (JobState.COMPLETED, 2)
        assert store.get(long_job.job_id).state == JobState.COMPLETED
        assert multiprocessing.active_children() == []


ORPHAN_SCHEDULER = """
import multiprocessing, pathlib, sys, time
from repro.service import JobStore, Scheduler
root, short_id, pid_file = sys.argv[1:]
scheduler = Scheduler(JobStore(root), max_workers=2, poll_interval=0.05)
scheduler.step()
while short_id in scheduler._workers:
    scheduler._wait()
    scheduler.step()
pids = [proc.pid for proc in multiprocessing.active_children()]
pathlib.Path(pid_file).write_text(" ".join(map(str, pids)))
time.sleep(600)
"""


def test_workers_exit_once_their_scheduler_is_killed_alone(tmp_path):
    """SIGKILL the scheduler, not its process group: the idle worker reads
    EOF and exits, the busy one finishes its job, then exits too."""
    store = JobStore(tmp_path / "root")
    long_job = store.submit(long_spec(14))
    short_job = store.submit(small_spec(15))
    pid_file = tmp_path / "worker-pids"
    server = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCHEDULER, str(store.root),
         short_job.job_id, str(pid_file)],
        env=dict(os.environ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while not pid_file.exists() or not pid_file.read_text():
            assert server.poll() is None, "the scheduler exited early"
            assert time.monotonic() < deadline
            time.sleep(0.02)
        workers = [int(pid) for pid in pid_file.read_text().split()]
        assert len(workers) == 2
    finally:
        server.kill()
        server.wait()
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while any(running(pid) for pid in workers):
        assert time.monotonic() < deadline, "a worker outlived its scheduler"
        time.sleep(0.02)
    assert store.get(short_job.job_id).state == JobState.COMPLETED
    assert store.get(long_job.job_id).state == JobState.COMPLETED


class TestKilledWorker:
    def test_sigkill_requeues_then_fails_with_the_signal_named(self, tmp_path):
        store = JobStore(tmp_path / "root")
        job = store.submit(long_spec(3))
        scheduler = Scheduler(
            store, max_workers=1, poll_interval=0.05, max_attempts=2
        )
        scheduler.step()
        first_pid = scheduler._workers[job.job_id].pid
        assert first_pid != os.getpid()
        kill_worker(scheduler, job.job_id)

        # One pass reaps the corpse, requeues the job and relaunches it.
        scheduler.step()
        relaunched = store.get(job.job_id)
        assert (relaunched.state, relaunched.attempts) == (JobState.RUNNING, 2)
        assert scheduler._workers[job.job_id].pid != first_pid
        kill_worker(scheduler, job.job_id)

        assert not scheduler.step()  # nothing left to do: it is terminal
        failed = store.get(job.job_id)
        assert failed.state == JobState.FAILED
        assert failed.error == "worker killed by SIGKILL (2 attempts)"
        assert failed.finished_at is not None
        marker = read_events(store.events_path(job.job_id))[-1]
        assert marker["type"] == "job_failed"
        assert marker["error"] == failed.error

        # The scheduler itself is unharmed: the next job runs normally.
        good = store.submit(small_spec(4))
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        assert store.get(good.job_id).state == JobState.COMPLETED
        assert multiprocessing.active_children() == []


class TestInheritedStateDoesNotLeak:
    def test_records_equal_inline_runs_whatever_the_parent_holds(self, tmp_path):
        """A fork inherits the caller's bigint selection and global RNG
        states; each job still derives everything from its spec."""
        specs = [
            small_spec(6),
            small_spec(7, plane="vectorized"),
            crypto_spec("object", 12),
        ]
        expected = [inline_result(spec) for spec in specs]
        random_state, numpy_state = random.getstate(), np.random.get_state()
        try:
            random.seed(12345)
            np.random.seed(12345)
            random.random(), np.random.random()
            with bigint.use_backend("python"):
                records = run_batch(
                    specs, tmp_path / "root", max_workers=2,
                    timeout=DRAIN_TIMEOUT,
                )
        finally:
            random.setstate(random_state)
            np.random.set_state(numpy_state)
        assert [record["result"] for record in records] == expected

    def test_process_crypto_backend_runs_under_a_forked_worker(
        self, tmp_path, monkeypatch
    ):
        """A worker is a plain (non-daemon) process, so a job may start
        its own pool.  The patched ``_pool`` is inherited through the fork
        and leaves a marker: the pool really was started in the child."""
        marker = tmp_path / "pool-started"
        real_pool = ProcessPoolBackend._pool

        def marking_pool(self):
            marker.write_text(str(os.getpid()))
            return real_pool(self)

        monkeypatch.setattr(ProcessPoolBackend, "_pool", marking_pool)
        spec = crypto_spec(
            "vectorized-crypto", 80, crypto_backend="process", backend_workers=2
        )
        [record] = run_batch(
            [spec], tmp_path / "root", max_workers=1, timeout=DRAIN_TIMEOUT
        )
        assert record["environment"]["crypto_backend"] == "process"
        assert int(marker.read_text()) != os.getpid()
        serial = crypto_spec("vectorized-crypto", 80, crypto_backend="serial")
        assert record["result"] == inline_result(serial)


def test_scheduler_import_preloads_what_jobs_import_lazily():
    """Imported once in the parent, so no forked worker repeats it.  The
    fault plane is not among them: a spec that declares faults loads it
    while it resolves, which the scheduler does before forking the job's
    worker."""
    code = (
        "import repro.service.scheduler, sys; "
        "missing = {'numpy.random', 'repro.service.worker'} - set(sys.modules); "
        "eager = {'repro.faults'} & set(sys.modules); "
        "sys.exit(f'not preloaded: {sorted(missing)}' if missing else "
        "f'preloaded: {sorted(eager)}' if eager else 0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
