"""JobStore: durable queue semantics, claim ordering, crash markers,
and the append-only lifecycle log a job is the fold of."""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import small_spec
from repro.api import RunSpec
from repro.ndjson import fold, read_events
from repro.service import Job, JobState, JobStore, Scheduler
from repro.service.worker import execute_job


class TestSubmit:
    def test_submit_writes_durable_record(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        assert job.state == JobState.QUEUED
        [payload] = read_events(store.log_path(job.job_id))
        assert payload["format"] == "chiaroscuro-job/v1"
        assert Job.from_dict(payload) == job
        assert not store.job_path(job.job_id).exists()  # never written
        # a second store over the same root sees the job
        assert JobStore(tmp_path).get(job.job_id) == job

    def test_submit_accepts_dict_and_validates(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(small_spec(2).to_dict())
        assert RunSpec.from_dict(job.spec) == small_spec(2)
        with pytest.raises(ValueError, match="unknown plane"):
            store.submit({**small_spec(0).to_dict(), "plane": "warp"})

    def test_submit_batch_is_all_or_nothing_validation(self, tmp_path):
        store = JobStore(tmp_path)
        bad = {**small_spec(0).to_dict(), "strategy": "UFx"}
        with pytest.raises(ValueError):
            store.submit_batch([small_spec(1).to_dict(), bad])
        assert store.jobs() == []  # the good spec was not half-enqueued

    def test_job_ids_unique_and_sluggged(self, tmp_path):
        store = JobStore(tmp_path)
        jobs = [store.submit(small_spec(s, name="My Run!")) for s in range(5)]
        assert len({job.job_id for job in jobs}) == 5
        assert all("my-run" in job.job_id for job in jobs)


class TestQueue:
    def test_claim_order_is_submit_order(self, tmp_path):
        store = JobStore(tmp_path)
        submitted = [store.submit(small_spec(s)) for s in range(3)]
        claimed = [
            store.claim(store.in_state(JobState.QUEUED)[0]).job_id for _ in range(3)
        ]
        assert claimed == [job.job_id for job in submitted]
        assert store.in_state(JobState.QUEUED) == []

    def test_claim_marks_running_and_counts_attempts(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.claim(store.submit(small_spec(1)))
        assert job.state == JobState.RUNNING
        assert job.attempts == 1
        assert job.started_at is not None

    def test_update_is_read_modify_write(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        store.update(job.job_id, state=JobState.RUNNING, attempts=2)
        updated = store.update(job.job_id, error="boom")
        assert updated.state == JobState.RUNNING  # earlier change preserved
        assert updated.attempts == 2
        assert updated.error == "boom"
        assert store.get(job.job_id) == updated
        # one line per change, holding only what it changed
        assert read_events(store.log_path(job.job_id))[1:] == [
            {"state": JobState.RUNNING, "attempts": 2}, {"error": "boom"},
        ]
        with pytest.raises(TypeError):
            store.update(job.job_id, colour="red")
        with pytest.raises(KeyError, match="unknown job"):
            store.update("nope", state=JobState.FAILED)

    def test_jobs_skips_ids_without_reading_their_records(self, tmp_path):
        """The scheduler's poll primitive: a terminal job's record is not
        re-parsed — here it could not be."""
        store = JobStore(tmp_path)
        first, second, third = (store.submit(small_spec(s)) for s in range(3))
        store.log_path(second.job_id).write_text('{"format": "bogus"}\n')
        listed = store.jobs(skip={second.job_id})
        assert [job.job_id for job in listed] == [first.job_id, third.job_id]
        with pytest.raises(ValueError):
            store.jobs()

    def test_get_unknown_job(self, tmp_path):
        with pytest.raises(KeyError, match="unknown job"):
            JobStore(tmp_path).get("nope")

    def test_init_sweeps_stale_job_record_tmps(self, tmp_path):
        """A kill mid-job.json-write leaves a pid-stamped tmp; the next
        store construction (dead writer) must sweep it."""
        import subprocess
        import sys

        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        dead_pid = int(subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        ).stdout)
        stale = store.job_dir(job.job_id) / f"job.json.{dead_pid}.tmp"
        stale.write_text("{torn")
        JobStore(tmp_path)
        assert not stale.exists()
        assert store.get(job.job_id) == job  # the real record is untouched


class TestRecovery:
    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.submit(small_spec(1))
        b = store.submit(small_spec(2))
        store.claim(a)  # a → running (then the "server" dies)
        recovered = store.recover()
        assert [job.job_id for job in recovered] == [a.job_id]
        assert store.get(a.job_id).state == JobState.QUEUED
        assert store.get(a.job_id).attempts == 1  # attempt history kept
        assert store.get(b.job_id).state == JobState.QUEUED

    def test_recover_leaves_terminal_states_alone(self, tmp_path):
        store = JobStore(tmp_path)
        done = store.submit(small_spec(1))
        dead = store.submit(small_spec(2))
        store.update(done.job_id, state=JobState.COMPLETED)
        store.update(dead.job_id, state=JobState.FAILED, error="x")
        assert store.recover() == []
        assert store.get(done.job_id).state == JobState.COMPLETED
        assert store.get(dead.job_id).state == JobState.FAILED


class TestLegacyRecord:
    def test_a_job_json_is_the_first_record_and_never_written(self, tmp_path):
        """A root written before lifecycle logs keeps loading: its
        ``job.json`` is read as the fold's first record, and changes are
        appended to a log beside it."""
        store = JobStore(tmp_path)
        job = Job(job_id="old", spec=small_spec(1).to_dict(), name="old",
                  submitted_at=5.0)
        store.job_dir("old").mkdir()
        legacy = json.dumps(job.to_dict(), indent=2) + "\n"
        store.job_path("old").write_text(legacy)
        assert store.get("old") == job
        claimed = store.claim(job)
        assert store.jobs() == [claimed]
        assert store.job_path("old").read_text() == legacy
        assert read_events(store.log_path("old")) == [
            {"state": JobState.RUNNING, "started_at": claimed.started_at,
             "attempts": 1},
        ]


def _update_many(args):
    """Worker for the concurrent-update test (module-level: picklable)."""
    root, job_id, field = args
    store = JobStore(root)
    for value in range(40):
        store.update(job_id, **{field: value if field == "attempts" else str(value)})
    return field


class TestConcurrentUpdates:
    def test_two_processes_updating_one_job_both_land(self, tmp_path):
        """Each update appends only its own fields, so neither process's
        last change is overwritten by the other's stale read (a whole-record
        read-modify-write loses whichever write lands on a stale read)."""
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_update_many, [
                (tmp_path, job.job_id, "attempts"),
                (tmp_path, job.job_id, "error"),
            ]))
        final = store.get(job.job_id)
        assert (final.attempts, final.error) == (39, "39")
        assert len(read_events(store.log_path(job.job_id))) == 1 + 2 * 40


@functools.lru_cache(maxsize=1)
def _served_job() -> tuple[dict[str, bytes], dict]:
    """A drained 2-iteration job: the bytes of every file in its directory
    and its result record."""
    with tempfile.TemporaryDirectory() as root:
        store = JobStore(root)
        job = store.submit(small_spec(4))
        Scheduler(store, max_workers=1, poll_interval=0.05).drain(timeout=60)
        job_dir = store.job_dir(job.job_id)
        files = {
            path.relative_to(job_dir).as_posix(): path.read_bytes()
            for path in job_dir.rglob("*") if path.is_file()
        }
        return files, store.load_result(job.job_id)


def _states(log: bytes) -> list[dict | None]:
    """The job's state after each complete line of ``log`` (``None``:
    before the first): the record, then each change laid over it."""
    states = [None]
    for line in log.splitlines():
        change = json.loads(line)
        states.append(change if states[-1] is None else {**states[-1], **change})
    return states


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_torn_lifecycle_log_folds_to_a_passed_state_and_drains(data):
    """Cut ``job.ndjson`` at any byte: the fold is the state after the
    last complete line — one the job really passed through, nothing when
    the first line is torn — and a restarted scheduler drains the job to
    the uninterrupted run's final record."""
    files, expected = _served_job()
    log = files["job.ndjson"]
    states = _states(log)
    assert [s and s.get("state") for s in states] == [
        None, JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED,
    ]
    cut = data.draw(st.integers(0, len(log)), label="cut")
    passed = states[log[:cut].count(b"\n")]
    kept = {**files, "job.ndjson": log[:cut]}
    if passed is None or passed["state"] != JobState.COMPLETED:
        del kept["result.json"]  # the drain must write it again
    with tempfile.TemporaryDirectory() as root:
        store = JobStore(root)
        job_id = states[-1]["job_id"]
        for name, content in kept.items():
            path = store.job_dir(job_id) / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        assert fold(store.log_path(job_id)) == passed
        scheduler = Scheduler(store, max_workers=1, poll_interval=0.05)
        scheduler.recover()
        scheduler.drain(timeout=60)
        if passed is None:  # never submitted: nothing to drain
            assert store.jobs() == []
            return
        final = store.get(job_id)
        reference = Job.from_dict(states[-1])
        assert final.state == JobState.COMPLETED
        assert (final.spec, final.name, final.submitted_at) == (
            reference.spec, reference.name, reference.submitted_at
        )
        assert store.load_result(job_id)["result"] == expected["result"]


def test_one_served_job_fits_its_write_budget(tmp_path, monkeypatch):
    """The durable writes of one 2-iteration job, as a scheduler and its
    worker make them: an fsynced line per state change (submit, claim,
    complete) and per checkpoint, a directory fsync per created log, one
    atomic ``result.json``, one append per event.  A whole-file rewrite
    creeping back in fails here."""
    counts = collections.Counter()
    real_fsync, real_replace, real_open = os.fsync, os.replace, os.open

    def fsync(fd):
        counts["fsync"] += 1
        return real_fsync(fd)

    def replace(src, dst):
        counts["replace"] += 1
        return real_replace(src, dst)

    def open_(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if flags & os.O_APPEND:
            counts["append " + pathlib.Path(path).name] += 1
        return fd

    store = JobStore(tmp_path)
    spec = small_spec(1)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "open", open_)
    job = store.claim(store.submit(spec))
    assert execute_job(store, job) == 0
    monkeypatch.undo()
    assert store.get(job.job_id).state == JobState.COMPLETED
    assert len(store.load_result(job.job_id)["result"]["history"]) == 2
    assert dict(counts) == {
        "fsync": 9,  # 3 job lines + 2 state lines + 2 new logs' dirs + result.json and its dir
        "replace": 1,  # result.json
        "append job.ndjson": 3,
        "append state.ndjson": 2,
        "append events.ndjson": 7,
    }
