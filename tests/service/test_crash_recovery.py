"""The service's flagship guarantee: SIGKILL the whole server process
group mid-iteration, restart it, and every job still completes with a
result bit-identical to the same spec run uninterrupted inline.

This is the subsystem acceptance test, so it uses the real deployment
surface — ``python -m repro serve`` as a subprocess in its own process
group (the kill takes the workers down with the server, exactly like a
machine crash), not an in-process scheduler.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from _helpers import small_spec
from repro.api import Experiment, run_record
from repro.service import JobState, JobStore, read_events, tail_jobs

N_JOBS = 8
SERVE_TIMEOUT = 300.0


def spawn_server(root, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--root", str(root),
            "--max-workers", str(N_JOBS), "--poll", "0.05", *extra,
        ],
        env=dict(os.environ),
        start_new_session=True,  # own process group: killpg == machine crash
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def test_sigkill_mid_iteration_then_restart_completes_bit_identical(tmp_path):
    root = tmp_path / "root"
    store = JobStore(root)
    # The acceptance scenario: 8 jobs executing concurrently (one worker
    # slot each), enough iterations per job that the kill lands mid-run.
    specs = [
        small_spec(seed, max_iterations=6, n_series=400)
        for seed in range(N_JOBS - 1)
    ] + [small_spec(77, plane="vectorized", max_iterations=4, n_series=250)]
    store.submit_batch(specs)

    server = spawn_server(root)
    pre_kill_events: list[dict] = []
    try:
        deadline = time.monotonic() + SERVE_TIMEOUT
        while time.monotonic() < deadline:
            pre_kill_events = list(tail_jobs(store))
            if sum(
                r["type"] == "iteration_completed" for r in pre_kill_events
            ) >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server produced no iterations before the deadline")
    finally:
        os.killpg(server.pid, signal.SIGKILL)
        server.wait()

    interrupted = store.in_state(JobState.RUNNING)
    assert interrupted, "expected jobs to be mid-flight at the kill"

    # Restart: recovery re-enqueues the crash-marked jobs, workers resume
    # from their checkpoints, and the drain finishes the whole batch.
    restart = spawn_server(root, "--drain", "--timeout", str(SERVE_TIMEOUT))
    assert restart.wait(timeout=SERVE_TIMEOUT) == 0

    final = store.jobs()
    assert [job.state for job in final] == [JobState.COMPLETED] * N_JOBS
    resumed = [job for job in final if job.attempts > 1]
    assert resumed, "at least the killed jobs must have re-attempted"

    for job, spec in zip(final, specs):
        record = store.load_result(job.job_id)
        assert record["schema"] == "chiaroscuro-run/v1"
        inline = Experiment.from_spec(spec).run()
        expected = json.loads(json.dumps(run_record(spec, inline)["result"]))
        assert record["result"] == expected, f"{job.job_id} diverged"

    # A checkpointed job killed mid-run must have *resumed*, not
    # restarted: its post-kill run_started reports the checkpoint.  (Jobs
    # killed before their first checkpoint legitimately restart at 0, so
    # the assertion only applies when the pre-kill events show a save.)
    resumed_markers = [
        r
        for job in resumed
        for r in read_events(store.events_path(job.job_id))
        if r["type"] == "run_started" and r["resumed_iteration"] > 0
    ]
    if any(r["type"] == "checkpoint_saved" for r in pre_kill_events):
        assert resumed_markers, "no job resumed from its checkpoint"
