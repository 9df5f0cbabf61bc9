"""Scheduler: concurrent execution, failure isolation, bit-identity.

These tests drive the real forked-worker path (the scheduler forks up to
``max_workers`` ``repro.service.worker`` processes and hands them the
jobs), just in-process from pytest via ``drain()`` instead of
``repro serve``.
"""

from __future__ import annotations

import json

import pytest

from _helpers import small_spec
from repro.api import Experiment, RunSpec, run_record
from repro.service import (
    JobState,
    JobStore,
    Scheduler,
    read_events,
    run_batch,
    tail_jobs,
)

DRAIN_TIMEOUT = 300.0  # a hang guard, not a budget: a batch here takes < 1 s


def json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestScheduler:
    def test_concurrent_batch_completes_bit_identical(self, tmp_path):
        """Mixed planes + strategies, more jobs than workers: every job
        completes, and each record equals the same spec run inline."""
        specs = [small_spec(seed) for seed in range(4)] + [
            small_spec(9, plane="vectorized")
        ]
        records = run_batch(
            specs, tmp_path / "root", max_workers=3, timeout=DRAIN_TIMEOUT
        )
        for spec, record in zip(specs, records):
            assert record["schema"] == "chiaroscuro-run/v1"
            inline = Experiment.from_spec(spec).run()
            assert record["result"] == json_round_trip(
                run_record(spec, inline)["result"]
            )

    def test_failing_job_does_not_poison_the_batch(self, tmp_path):
        """A spec that validates but explodes at build time fails alone;
        the rest of the batch completes."""
        store = JobStore(tmp_path / "root")
        good = store.submit(small_spec(1))
        # passes RunSpec validation (dataset params are opaque kwargs) but
        # the worker's generator call rejects the unknown kwarg
        bad_dict = small_spec(2).to_dict()
        bad_dict["dataset"]["params"]["bogus_knob"] = 1
        bad = store.submit(RunSpec.from_dict(bad_dict))
        scheduler = Scheduler(store, max_workers=2, poll_interval=0.05)
        scheduler.drain(timeout=DRAIN_TIMEOUT)
        assert store.get(good.job_id).state == JobState.COMPLETED
        failed = store.get(bad.job_id)
        assert failed.state == JobState.FAILED
        assert "bogus_knob" in failed.error
        events = list(tail_jobs(store))
        assert any(r["type"] == "job_failed" for r in events)

    def test_run_batch_raises_on_failure(self, tmp_path):
        bad_dict = small_spec(2).to_dict()
        bad_dict["dataset"]["params"]["bogus_knob"] = 1
        with pytest.raises(RuntimeError, match="did not complete"):
            run_batch(
                [bad_dict], tmp_path / "root", max_workers=1,
                timeout=DRAIN_TIMEOUT,
            )

    def test_events_multiplexed_per_job_and_combined(self, tmp_path):
        store = JobStore(tmp_path / "root")
        jobs = [store.submit(small_spec(seed)) for seed in range(2)]
        Scheduler(store, max_workers=2, poll_interval=0.05).drain(
            timeout=DRAIN_TIMEOUT
        )
        for job in jobs:
            own = read_events(store.events_path(job.job_id))
            kinds = [r["type"] for r in own]
            assert kinds[0] == "run_started"
            assert kinds[-1] == "job_completed"
            assert "checkpoint_saved" in kinds
            assert {r["job"] for r in own} == {job.job_id}
        merged = list(tail_jobs(store))
        assert {r["job"] for r in merged} == {job.job_id for job in jobs}
        assert merged == sorted(
            merged, key=lambda r: (r["ts"], r["job"], r["seq"])
        )

    def test_validates_max_workers(self, tmp_path):
        with pytest.raises(ValueError, match="max_workers"):
            Scheduler(JobStore(tmp_path), max_workers=0)
