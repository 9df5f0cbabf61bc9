"""Checkpoint/resume: kill-and-resume must be bit-identical to an
uninterrupted seeded run (the acceptance criterion of the checkpoint
subsystem), on every plane, from one append-only state log."""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Checkpoint,
    CheckpointSaved,
    CheckpointStore,
    Experiment,
    IterationCompleted,
    RunSpec,
    atomic_write_text,
    event_to_dict,
)
from repro.api.checkpoint import STATE_LOG, sweep_stale_tmps
from repro.core.results import IterationStats
from repro.service import JobStore
from repro.ndjson import read_blocks

CRYPTO_PLANES = ("object", "vectorized-crypto")


def spec_for(plane: str = "quality", seed: int = 15, **params) -> RunSpec:
    if plane in CRYPTO_PLANES:
        # 16 devices and a 128-bit key keep a real-crypto run well under a
        # second; ε = 10⁵ keeps both clusters alive for all 5 iterations.
        return RunSpec.from_dict({
            "plane": plane,
            "seed": 5,
            "strategy": "UF5",
            "dataset": {"kind": "points2d",
                        "params": {"n_clusters": 2, "points_per_cluster": 8,
                                   "duplications": 1}},
            "init": {"kind": "sample"},
            "params": {"k": 2, "max_iterations": 5, "exchanges": 8,
                       "key_bits": 128, "tau_fraction": 0.2,
                       "epsilon": 1e5, "theta": 0.0, **params},
        })
    return RunSpec.from_dict({
        "plane": plane,
        "seed": seed,
        "strategy": "G",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 250, "population_scale": 100}},
        "init": {"kind": "courbogen"},
        # ε = 50: generous enough that clusters survive all 5 iterations on
        # both planes at this 250-node test scale and seed (bit-identity is
        # about RNG-stream equality, not the paper's privacy calibration).
        # Seed 13 did until the sparse share sampler redrew the noise stream;
        # at 15 both planes complete all 5.
        "params": {"k": 4, "max_iterations": 5, "epsilon": 50.0,
                   "exchanges": 10, "theta": 0.0, **params},
    })


def run_interrupted(spec, directory, kill_after: int, resume: bool = True):
    """Drive run_iter and abandon it after ``kill_after`` checkpoints."""
    saved = 0
    for event in Experiment.from_spec(spec).run_iter(
        checkpoint_dir=directory, resume=resume
    ):
        if isinstance(event, CheckpointSaved):
            saved += 1
            if saved >= kill_after:
                return  # the "kill": generator is simply dropped


def log_lines(directory) -> list[bytes]:
    return (pathlib.Path(directory) / STATE_LOG).read_bytes().splitlines()


def digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def _record(worker: int, iteration: int) -> Checkpoint:
    return Checkpoint(
        stats=IterationStats(iteration, 0.0, 0.0, 1, 0.0,
                             np.full((1, 1), float(worker))),
        epsilon_spent=0.0, converged=False, rng_state={},
        crypto_state=random.Random(worker).getstate(),
        spec={"worker": worker} if iteration == 1 else None,
    )


def _append_many(args):
    """Worker for the concurrent-append test (module-level: picklable)."""
    directory, worker = args
    store = CheckpointStore(directory)
    for iteration in range(1, 9):
        store.save(_record(worker, iteration))
    return worker


def assert_bit_identical(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert np.array_equal(a.centroids, b.centroids)
    for x, y in zip(a.history, b.history):
        assert x.iteration == y.iteration
        assert x.pre_inertia == y.pre_inertia
        assert x.post_inertia == y.post_inertia
        assert x.n_centroids == y.n_centroids
        assert x.epsilon_spent == y.epsilon_spent
        assert np.array_equal(x.centroids, y.centroids)


class TestKillAndResume:
    @pytest.mark.parametrize(
        "plane", ["quality", "vectorized", *CRYPTO_PLANES]
    )
    @pytest.mark.parametrize("kill_after", [1, 2, 3, 4])
    def test_resume_bit_identical(self, tmp_path, plane, kill_after):
        """Centroids, history and the crypto stream's final state: a
        resumed object-plane run re-encrypts with the very randomizers the
        uninterrupted run drew."""
        spec = spec_for(plane)
        experiment = Experiment.from_spec(spec)
        uninterrupted = experiment.run()
        assert uninterrupted.iterations == 5

        directory = str(tmp_path / f"{plane}-{kill_after}")
        run_interrupted(spec, directory, kill_after)
        assert len(CheckpointStore(directory).records()) == kill_after

        again = Experiment.from_spec(spec)
        resumed = again.run(checkpoint_dir=directory)
        assert_bit_identical(resumed, uninterrupted)
        assert (again.context.runtime.crypto_rng.getstate()
                == experiment.context.runtime.crypto_rng.getstate())

    @pytest.mark.parametrize("plane", ["quality", "vectorized", "object"])
    def test_resumed_iteration_events_equal_the_uninterrupted_tail(
        self, tmp_path, plane
    ):
        """One ε ledger across resume: the wire form of every iteration a
        resumed run completes — running total and remainder included, with
        ``==`` — is what the uninterrupted run emitted for it."""

        def iteration_wire(events):
            wire = [
                event_to_dict(e) for e in events
                if isinstance(e, IterationCompleted)
            ]
            for record in wire:
                del record["crypto_ms"]  # wall time, not a run fact
            return wire

        spec = spec_for(plane)
        uninterrupted = iteration_wire(Experiment.from_spec(spec).run_iter())
        assert [r["iteration"] for r in uninterrupted] == [1, 2, 3, 4, 5]

        directory = str(tmp_path / plane)
        run_interrupted(spec, directory, 2)
        resumed = iteration_wire(
            Experiment.from_spec(spec).run_iter(checkpoint_dir=directory)
        )
        assert resumed == uninterrupted[2:]

    def test_resume_with_churn_bit_identical(self, tmp_path):
        spec = spec_for("quality").replace(churn=0.25)
        uninterrupted = Experiment.from_spec(spec).run()
        directory = str(tmp_path / "churn")
        run_interrupted(spec, directory, 2)
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, uninterrupted)

    def test_resume_past_completion_is_a_no_op(self, tmp_path):
        spec = spec_for("quality")
        directory = str(tmp_path / "done")
        full = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        again = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(again, full)

    def test_resume_after_convergence_does_not_iterate_further(self, tmp_path):
        spec = spec_for("quality").replace(
            params=spec_for("quality").params.__class__(
                k=4, max_iterations=8, epsilon=1e6, theta=1e3, exchanges=10
            )
        )
        directory = str(tmp_path / "conv")
        full = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert full.converged
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, full)

    def test_restart_is_not_resumed_past_by_another_runs_records(self, tmp_path):
        """A 5-iteration run of one spec, then ``resume=False`` of another
        killed after 2 records, then a resume of the second: it continues
        its own 2 records (the older run's later iterations are gone)."""
        directory = str(tmp_path / "reused")
        first = spec_for("quality", seed=13)
        Experiment.from_spec(first).run(checkpoint_dir=directory)
        second = spec_for("quality", seed=14)
        run_interrupted(second, directory, 2, resume=False)
        resumed = list(
            Experiment.from_spec(second).run_iter(checkpoint_dir=directory)
        )
        assert resumed[0].resumed_iteration == 2
        assert_bit_identical(
            resumed[-1].result, Experiment.from_spec(second).run()
        )

    def test_a_kill_during_a_restart_leaves_the_old_log(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "restart-kill")
        spec = spec_for("quality")
        run_interrupted(spec, directory, 2)
        before = log_lines(directory)

        def killed(src, dst):
            raise KeyboardInterrupt  # dies before the rename lands

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            run_interrupted(spec, directory, 1, resume=False)
        monkeypatch.undo()
        assert log_lines(directory) == before

    def test_state_bytes_grow_linearly(self, tmp_path):
        """Every record holds one iteration: records 2…I are the same size
        (±5 %) and none carries earlier iterations' history."""
        spec = spec_for("quality", epsilon=1e6, max_iterations=8)
        directory = str(tmp_path / "linear")
        result = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert result.iterations == 8
        assert len(set(result.n_centroids_curve)) == 1  # same-sized releases
        lines = log_lines(directory)
        assert len(lines) == 8
        sizes = [len(line) for line in lines[1:]]
        assert max(sizes) <= 1.05 * min(sizes)
        records = [json.loads(line) for line in lines]
        assert ["spec" in r for r in records] == [True] + [False] * 7
        assert not any("history" in r for r in records)


@functools.lru_cache(maxsize=1)
def _torn_reference() -> tuple[bytes, str]:
    """A 3-iteration run's complete state log and its result digest."""
    spec = spec_for("quality", max_iterations=3)
    with tempfile.TemporaryDirectory() as directory:
        result = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        log = (pathlib.Path(directory) / STATE_LOG).read_bytes()
    return log, digest(result)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_torn_log_resumes_from_its_last_complete_line(data):
    """Cut the log at any byte: a cut inside record i resumes after
    iteration i − 1 (before the first newline: from scratch), and every
    cut ends at the uninterrupted run's digest."""
    log, expected = _torn_reference()
    assert log.count(b"\n") == 3
    cut = data.draw(st.integers(0, len(log)), label="cut")
    with tempfile.TemporaryDirectory() as directory:
        (pathlib.Path(directory) / STATE_LOG).write_bytes(log[:cut])
        events = list(
            Experiment.from_spec(spec_for("quality", max_iterations=3))
            .run_iter(checkpoint_dir=directory)
        )
        assert events[0].resumed_iteration == log[:cut].count(b"\n")
        assert digest(events[-1].result) == expected
        # the torn tail is gone: the log is whole lines again
        assert (pathlib.Path(directory) / STATE_LOG).read_bytes() == log


class TestCheckpointHygiene:
    def test_checkpoint_json_round_trip(self, tmp_path):
        spec = spec_for("quality")
        directory = str(tmp_path / "rt")
        run_interrupted(spec, directory, 2)
        records = CheckpointStore(directory).records()
        assert [r.stats.iteration for r in records] == [1, 2]
        assert records[0].spec == spec.to_dict()
        assert [r.to_line().encode() for r in records] == [
            line + b"\n" for line in log_lines(directory)
        ]

    def test_spec_mismatch_refuses_resume(self, tmp_path):
        directory = str(tmp_path / "mismatch")
        run_interrupted(spec_for("quality", seed=13), directory, 1)
        other = spec_for("quality", seed=14)
        with pytest.raises(ValueError, match="different spec"):
            Experiment.from_spec(other).run(checkpoint_dir=directory)

    def test_resume_under_a_spec_that_pivoted_away_and_back(self, tmp_path):
        """A plane pivot leaves no trace: the round-tripped spec is the spec
        that wrote the checkpoint (it used to be refused as "different")."""
        spec = spec_for("quality")
        directory = str(tmp_path / "pivot")
        run_interrupted(spec, directory, 2)
        back = spec.with_plane("vectorized").with_plane("quality")
        resumed = Experiment.from_spec(back).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_resume_under_different_bigint_backend(self, tmp_path):
        """The kernel is a result-neutral speed knob: switching it between
        interruption and resume must not trip the spec-identity check, and
        the resumed run stays bit-identical."""
        spec = spec_for("quality")
        assert spec.params.bigint_backend == "auto"
        directory = str(tmp_path / "kernel-swap")
        run_interrupted(spec, directory, 2)
        swapped_dict = spec.to_dict()
        swapped_dict["params"]["bigint_backend"] = "python"
        swapped = RunSpec.from_dict(swapped_dict)
        resumed = Experiment.from_spec(swapped).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    @staticmethod
    def _edit_logged_spec(directory, edit) -> None:
        """Rewrite the spec the log's first record carries."""
        lines = log_lines(directory)
        first = json.loads(lines[0])
        edit(first["spec"])
        lines[0] = json.dumps(first).encode()
        (pathlib.Path(directory) / STATE_LOG).write_bytes(
            b"".join(line + b"\n" for line in lines)
        )

    def test_resume_checkpoint_written_before_bigint_knob_existed(self, tmp_path):
        """Specs written before the knob existed (params without
        'bigint_backend') must keep resuming."""
        spec = spec_for("quality")
        directory = str(tmp_path / "pre-knob")
        run_interrupted(spec, directory, 2)
        self._edit_logged_spec(directory, lambda s: s["params"].pop("bigint_backend"))
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_resume_checkpoint_carrying_the_retired_use_packing_key(self, tmp_path):
        """Specs written before the knob was removed carry
        ``"use_packing": true``; it never had an effect on a resumable
        plane, so they keep resuming."""
        spec = spec_for("vectorized")
        directory = str(tmp_path / "retired-knob")
        run_interrupted(spec, directory, 2)
        self._edit_logged_spec(
            directory, lambda s: s["params"].update(use_packing=True)
        )
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_resume_a_log_whose_spec_states_the_strategy_the_retired_way(
        self, tmp_path
    ):
        """A spec stored before ``strategy`` was a spec field carries it as
        ``params.budget_strategy``; ``RunSpec.from_dict`` reads it as the
        same spec, so resuming its log is no "different spec"."""
        spec = spec_for("quality").replace(strategy="UF3")
        directory = str(tmp_path / "retired-strategy")
        run_interrupted(spec, directory, 2)

        def retire(stored):
            del stored["strategy"]
            stored["params"]["budget_strategy"] = "UF3"
            assert RunSpec.from_dict(stored) == spec

        self._edit_logged_spec(directory, retire)
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_no_resume_flag_restarts(self, tmp_path):
        spec = spec_for("quality")
        directory = str(tmp_path / "restart")
        run_interrupted(spec, directory, 1)
        fresh = Experiment.from_spec(spec).run(checkpoint_dir=directory, resume=False)
        assert_bit_identical(fresh, Experiment.from_spec(spec).run())

    def test_save_leaves_no_tmp_behind(self, tmp_path):
        path = atomic_write_text(tmp_path / "record.json", "{}\n")
        assert path.read_text() == "{}\n"
        directory = tmp_path / "tidy"
        run_interrupted(spec_for("quality"), str(directory), 2)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_init_sweeps_stale_tmps(self, tmp_path):
        """A kill mid-write leaves a tmp; the next job store construction
        in a fresh process must sweep it (the writer pid is dead)."""
        job_dir = tmp_path / "jobs" / "job-1"
        job_dir.mkdir(parents=True)
        # A dead writer: a subprocess that exits before we look at its pid.
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout)
        stale = job_dir / f"job.json.{dead_pid}.tmp"
        stale.write_text("{torn")
        legacy = job_dir / "job.json.tmp"  # pre-pid naming
        legacy.write_text("{torn")
        JobStore(tmp_path)
        assert not stale.exists() and not legacy.exists()

    def test_init_keeps_live_writers_tmp(self, tmp_path):
        """A tmp owned by a live process (another writer sharing the
        directory, mid-write) must survive the only-stale sweep."""
        job_dir = tmp_path / "jobs" / "job-1"
        job_dir.mkdir(parents=True)
        live = job_dir / f"job.json.{os.getpid()}.tmp"
        live.write_text("mid-write")
        JobStore(tmp_path)
        assert live.exists()
        sweep_stale_tmps(job_dir, only_stale=False)  # sweeps unconditionally
        assert not live.exists()

    def test_tmp_name_is_per_process_unique(self, tmp_path):
        """Two processes sharing a directory must not race on one tmp
        path: the name embeds the writer's pid."""
        seen = []
        original_replace = os.replace

        def spy(src, dst):
            seen.append(str(src))
            return original_replace(src, dst)

        os.replace = spy
        try:
            atomic_write_text(tmp_path / "job.json", "{}")
        finally:
            os.replace = original_replace
        assert seen and f".{os.getpid()}.tmp" in seen[0]

    def test_concurrent_saves_from_processes(self, tmp_path):
        """Four processes appending to one state log: every line parses
        (one ``O_APPEND`` write a record, so no two interleave)."""
        directory = str(tmp_path / "concurrent")
        CheckpointStore(directory).start([])
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(
                _append_many, [(directory, worker) for worker in range(4)]
            ))
        lines = log_lines(directory)
        records = [
            record
            for _, block in read_blocks(pathlib.Path(directory) / STATE_LOG, 0)
            for _, _, record in block
        ]
        assert len(records) == len(lines) == 32
        by_worker: dict[float, list[int]] = {}
        for record in CheckpointStore(directory).records():
            by_worker.setdefault(record.stats.centroids[0, 0], []).append(
                record.stats.iteration
            )
        assert by_worker == {float(w): list(range(1, 9)) for w in range(4)}

    def test_rng_state_survives_json_exactly(self, tmp_path):
        """PCG64 state ints are 128-bit and the Mersenne-Twister state is
        625 words; JSON must carry both exactly."""
        spec = spec_for("quality")
        directory = str(tmp_path / "state")
        run_interrupted(spec, directory, 1)
        record = CheckpointStore(directory).records()[-1]
        state = record.rng_state
        assert state["bit_generator"] == "PCG64"
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state  # restoring must be lossless
        assert rng.bit_generator.state["state"] == state["state"]
        crypto = random.Random()
        crypto.setstate(record.crypto_state)
        assert crypto.getstate() == random.Random(spec.seed).getstate()
