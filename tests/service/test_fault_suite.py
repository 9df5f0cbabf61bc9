"""Attack-grid smoke through the service scheduler (the CI fault-suite).

One spec per fault class runs through the real forked-worker path; the
suite asserts detection events land on the NDJSON bus, aborted runs
complete *cleanly* (job COMPLETED, exit 0 — an attack is a result, not a
crash), and records come back for every hostile spec.
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec
from repro.service import JobState, JobStore, Scheduler, read_events

DRAIN_TIMEOUT = 300.0

#: The smoke grid: every fault class exercised once, vectorized plane
#: (sub-second per job, no key generation in the worker).
ATTACKS = {
    "network": {"kind": "network",
                "params": {"loss": 0.3, "duplicate": 0.1, "delay": 0.1}},
    "byzantine-tamper": {"kind": "byzantine",
                         "params": {"fraction": 0.15, "mode": "tamper",
                                    "scale": 0.5}},
    "byzantine-malformed": {"kind": "byzantine",
                            "params": {"nodes": [1], "mode": "malformed"}},
    "churn-storm": {"kind": "churn-storm",
                    "params": {"rate": 1.0, "magnitude": 0.2,
                               "duration": 2}},
    "collusion": {"kind": "collusion", "params": {"fraction": 0.4}},
}

#: Detector each attack must surface on the bus (None: degradation only).
EXPECTED_DETECTOR = {
    "network": None,
    "byzantine-tamper": "decryption-cross-check",
    "byzantine-malformed": "decryption-cross-check",
    "churn-storm": "availability-monitor",
    "collusion": "coalition-audit",
}


def attack_spec(name: str, fault: dict) -> RunSpec:
    return RunSpec.from_dict({
        "name": f"fault-suite-{name}",
        "plane": "vectorized",
        "seed": 11,
        "strategy": "UF2",
        "dataset": {"kind": "points2d",
                    "params": {"n_clusters": 4, "points_per_cluster": 12,
                               "duplications": 1}},
        "init": {"kind": "sample"},
        "params": {"k": 3, "max_iterations": 2, "exchanges": 12,
                   "tau_fraction": 0.1, "epsilon": 2000.0, "theta": 0.0},
        "faults": [fault],
    })


@pytest.fixture(scope="module")
def drained_store(tmp_path_factory):
    """Submit the whole grid once; every test inspects the same store."""
    store = JobStore(tmp_path_factory.mktemp("fault-suite") / "root")
    jobs = {
        name: store.submit(attack_spec(name, fault))
        for name, fault in ATTACKS.items()
    }
    scheduler = Scheduler(store, max_workers=2, poll_interval=0.05)
    scheduler.recover()
    scheduler.drain(timeout=DRAIN_TIMEOUT)
    return store, jobs


class TestFaultSuite:
    def test_every_hostile_job_completes(self, drained_store):
        store, jobs = drained_store
        for name, job in jobs.items():
            final = store.get(job.job_id)
            assert final.state == JobState.COMPLETED, (
                f"{name}: {final.state} ({final.error})"
            )
            assert store.load_result(job.job_id) is not None, name

    def test_detection_events_reach_the_bus(self, drained_store):
        store, jobs = drained_store
        for name, job in jobs.items():
            expected = EXPECTED_DETECTOR[name]
            records = read_events(store.events_path(job.job_id))
            detectors = {
                r["detector"] for r in records if r["type"] == "fault_detected"
            }
            if expected is None:
                assert not detectors, f"{name} must not raise attack signals"
            else:
                assert expected in detectors, (
                    f"{name}: wanted {expected}, bus carried {detectors}"
                )

    def test_aborted_run_is_a_clean_completion(self, drained_store):
        """The NaN poison aborts — as a run_aborted event plus a final
        run_completed with reason 'aborted', with the job COMPLETED."""
        store, jobs = drained_store
        job = jobs["byzantine-malformed"]
        records = read_events(store.events_path(job.job_id))
        aborted = [r for r in records if r["type"] == "run_aborted"]
        assert len(aborted) == 1
        assert aborted[0]["fault"] == "byzantine"
        assert aborted[0]["epsilon_charged"] > 0
        completed = [r for r in records if r["type"] == "run_completed"]
        assert completed and completed[-1]["reason"] == "aborted"
        assert store.get(job.job_id).state == JobState.COMPLETED

    def test_unaborted_attacks_report_survival_quality(self, drained_store):
        """Non-aborting attacks still produce a full quality record — the
        bench's quality-under-attack comparisons depend on it."""
        store, jobs = drained_store
        for name in ("network", "byzantine-tamper", "churn-storm",
                     "collusion"):
            record = store.load_result(jobs[name].job_id)
            assert record["schema"] == "chiaroscuro-run/v1"
            assert record["spec"]["faults"], name
            assert record["result"]["history"], name
