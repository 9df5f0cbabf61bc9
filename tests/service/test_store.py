"""JobStore: durable queue semantics, claim ordering, crash markers."""

from __future__ import annotations

import json

import pytest

from _helpers import small_spec
from repro.api import RunSpec
from repro.service import Job, JobState, JobStore


class TestSubmit:
    def test_submit_writes_durable_record(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        assert job.state == JobState.QUEUED
        payload = json.loads(store.job_path(job.job_id).read_text())
        assert payload["format"] == "chiaroscuro-job/v1"
        assert Job.from_dict(payload) == job
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

    def test_jobs_skips_ids_without_reading_their_records(self, tmp_path):
        """The scheduler's poll primitive: a terminal job's record is not
        re-parsed — here it could not be."""
        store = JobStore(tmp_path)
        first, second, third = (store.submit(small_spec(s)) for s in range(3))
        (store.jobs_dir / second.job_id / "job.json").write_text("{torn")
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
