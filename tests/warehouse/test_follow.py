"""Acceptance: ``repro db ingest --follow`` tails a live fleet.

Two angles: a deterministic simulated writer (events appended between
follow cycles, torn tail included), and a real ``repro serve`` running a
job in a worker process while ``follow_ingest`` streams its events in.
"""

from __future__ import annotations

import os
import subprocess
import sys

from _wh_helpers import tiny_spec
from repro.api import RunSpec
from repro.service import JobState, JobStore, append_ndjson
from repro.warehouse import connect, follow_ingest, table_counts


class TestSimulatedTailing:
    def test_events_stream_in_across_cycles(self, tmp_path):
        """Each follow cycle picks up exactly the lines that landed since
        the previous one; a torn tail parks until its newline arrives."""
        store = JobStore(tmp_path / "svc")
        job = store.submit(tiny_spec(1))
        events = store.events_path(job.job_id)
        append_ndjson(events, {"type": "run_started", "job": job.job_id,
                               "seq": 0, "ts": 0.0})

        con = connect(tmp_path / "wh.db")
        deltas = []
        state = {"cycle": 0}

        def on_cycle(delta):
            state["cycle"] += 1
            deltas.append(delta["events"])
            if state["cycle"] == 1:
                # a full line and the first half of the next one
                append_ndjson(events,
                              {"type": "iteration_completed", "iteration": 1,
                               "job": job.job_id, "seq": 1, "ts": 1.0})
                with open(events, "a") as fh:
                    fh.write('{"type": "iteration_co')
            elif state["cycle"] == 2:
                with open(events, "a") as fh:
                    fh.write('mpleted", "iteration": 2, '
                             f'"job": "{job.job_id}", "seq": 2, "ts": 2.0}}\n')

        totals = follow_ingest(
            con, [store.root], poll_interval=0.0,
            should_stop=lambda: state["cycle"] >= 3, on_cycle=on_cycle,
        )
        # cycle 1: the initial line; cycle 2: the complete second line
        # only (torn third stays pending); cycle 3: the healed tail.
        assert deltas == [1, 1, 1]
        assert totals["events"] == 3
        assert table_counts(con)["events"] == 3
        con.close()


class TestLiveFleet:
    def test_follow_observes_events_before_job_completes(self, tmp_path):
        """The headline acceptance criterion: a follower attached to a
        running ``repro serve`` root sees the job's events while the
        worker is still going."""
        spec = RunSpec.from_dict({
            "name": "follow-live",
            "plane": "vectorized",
            "seed": 3,
            "strategy": "G",
            "dataset": {"kind": "cer",
                        "params": {"n_series": 6000,
                                   "population_scale": 100}},
            "init": {"kind": "courbogen"},
            "params": {"k": 4, "max_iterations": 6, "epsilon": 50.0,
                       "theta": 0.0, "exchanges": 30},
        })
        root = tmp_path / "svc"
        store = JobStore(root)
        store.submit(spec)
        # The server is its own process, as deployed: the scheduler forks
        # its workers and must not share a process with other threads.
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--max-workers", "1", "--poll", "0.05", "--drain",
             "--timeout", "120"],
            env=dict(os.environ),
            stdout=subprocess.DEVNULL,
        )

        con = connect(tmp_path / "wh.db")
        observations = []

        def on_cycle(delta):
            states = [job.state for job in store.jobs()]
            observations.append(
                (delta["events"], states[0] if states else None)
            )

        def done():
            if server.poll() is None:
                return False
            # one final drain pass already ran after the server exited
            return bool(observations) and observations[-1][0] == 0

        try:
            totals = follow_ingest(con, [root], poll_interval=0.05,
                                   should_stop=done, on_cycle=on_cycle)
        finally:
            exit_code = server.wait(timeout=120.0)
        assert exit_code == 0

        # Events were ingested while the job was still running.
        live = [(n, state) for n, state in observations
                if n > 0 and state in JobState.PENDING]
        assert live, (
            f"no mid-flight ingestion observed: {observations}"
        )
        # And the follower converged on the full stream: everything the
        # bus wrote is in the warehouse by the time we stop.
        assert totals["events"] == table_counts(con)["events"]
        assert totals["jobs"] == 1
        run = con.execute("SELECT * FROM runs").fetchone()
        assert run["name"] == "follow-live"
        assert run["converged"] is not None
        con.close()
