"""Checkpoint/resume: kill-and-resume must be bit-identical to an
uninterrupted seeded run (the acceptance criterion of the checkpoint
subsystem), on both checkpointable planes."""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    Checkpoint,
    CheckpointSaved,
    CheckpointStore,
    Experiment,
    IterationCompleted,
    RunCompleted,
    RunSpec,
    event_to_dict,
)


def spec_for(plane: str = "quality", seed: int = 15) -> RunSpec:
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
                   "exchanges": 10, "theta": 0.0},
    })


def run_interrupted(spec, directory, kill_after: int):
    """Drive run_iter and abandon it after ``kill_after`` checkpoints."""
    saved = 0
    for event in Experiment.from_spec(spec).run_iter(checkpoint_dir=directory):
        if isinstance(event, CheckpointSaved):
            saved += 1
            if saved >= kill_after:
                return  # the "kill": generator is simply dropped


def _save_many(args):
    """Worker for the concurrent-save test (module-level: picklable)."""
    directory, worker = args
    store = CheckpointStore(directory)
    for iteration in range(1, 9):
        store.save(Checkpoint(
            spec={"worker": worker}, plane="quality", iteration=iteration,
            centroids=[[float(worker)]], epsilon_spent=0.0, rng_state={},
        ))
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
    @pytest.mark.parametrize("plane", ["quality", "vectorized"])
    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_resume_bit_identical(self, tmp_path, plane, kill_after):
        spec = spec_for(plane)
        uninterrupted = Experiment.from_spec(spec).run()
        assert uninterrupted.iterations == 5

        directory = str(tmp_path / f"{plane}-{kill_after}")
        run_interrupted(spec, directory, kill_after)
        assert len(CheckpointStore(directory).iterations()) == kill_after

        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, uninterrupted)

    @pytest.mark.parametrize("plane", ["quality", "vectorized"])
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


class TestCheckpointHygiene:
    def test_checkpoint_json_round_trip(self, tmp_path):
        spec = spec_for("quality")
        directory = str(tmp_path / "rt")
        run_interrupted(spec, directory, 2)
        store = CheckpointStore(directory)
        checkpoint = store.latest()
        assert checkpoint.iteration == 2
        assert checkpoint.spec == spec.to_dict()
        again = Checkpoint.from_json(checkpoint.to_json())
        assert again == checkpoint

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

    def test_resume_checkpoint_written_before_bigint_knob_existed(self, tmp_path):
        """Pre-PR checkpoints (params dict without 'bigint_backend') must
        keep resuming."""
        import json

        spec = spec_for("quality")
        directory = str(tmp_path / "pre-knob")
        run_interrupted(spec, directory, 2)
        store = CheckpointStore(directory)
        # Age the newest checkpoint in place: drop the knob from its spec.
        path = max(store.directory.glob("checkpoint_*.json"))
        payload = json.loads(path.read_text())
        del payload["spec"]["params"]["bigint_backend"]
        path.write_text(json.dumps(payload))
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_resume_checkpoint_carrying_the_retired_use_packing_key(self, tmp_path):
        """Checkpoints written before the knob was removed carry
        ``"use_packing": true`` in their spec; it never had an effect on a
        checkpointable plane, so they keep resuming."""
        import json

        spec = spec_for("vectorized")
        directory = str(tmp_path / "retired-knob")
        run_interrupted(spec, directory, 2)
        path = max(CheckpointStore(directory).directory.glob("checkpoint_*.json"))
        payload = json.loads(path.read_text())
        payload["spec"]["params"]["use_packing"] = True
        path.write_text(json.dumps(payload))
        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, Experiment.from_spec(spec).run())

    def test_no_resume_flag_restarts(self, tmp_path):
        spec = spec_for("quality")
        directory = str(tmp_path / "restart")
        run_interrupted(spec, directory, 1)
        fresh = Experiment.from_spec(spec).run(checkpoint_dir=directory, resume=False)
        assert_bit_identical(fresh, Experiment.from_spec(spec).run())

    def test_object_plane_rejects_checkpointing(self, tmp_path):
        spec = RunSpec.from_dict({
            **spec_for("quality").to_dict(), "plane": "object",
        })
        with pytest.raises(ValueError, match="does not support checkpoint"):
            list(Experiment.from_spec(spec).run_iter(
                checkpoint_dir=str(tmp_path / "obj")
            ))

    def test_save_leaves_no_tmp_behind(self, tmp_path):
        spec = spec_for("quality")
        directory = tmp_path / "tidy"
        run_interrupted(spec, str(directory), 2)
        assert not list(directory.glob("*.tmp"))

    def test_init_sweeps_stale_tmps(self, tmp_path):
        """A kill mid-write leaves a tmp; the next store construction in a
        fresh process must sweep it (the writer pid is dead)."""
        directory = tmp_path / "stale"
        directory.mkdir()
        # A dead writer: a subprocess that exits before we look at its pid.
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout)
        stale = directory / f"checkpoint_000003.json.{dead_pid}.tmp"
        stale.write_text("{torn")
        legacy = directory / "checkpoint_000004.json.tmp"  # pre-fix naming
        legacy.write_text("{torn")
        CheckpointStore(directory)
        assert not stale.exists() and not legacy.exists()

    def test_init_keeps_live_writers_tmp(self, tmp_path):
        """A tmp owned by a live process (another run sharing the
        directory, mid-write) must survive the only-stale sweep."""
        directory = tmp_path / "live"
        directory.mkdir()
        live = directory / f"checkpoint_000001.json.{os.getpid()}.tmp"
        live.write_text("mid-write")
        CheckpointStore(directory)
        assert live.exists()
        CheckpointStore(directory).clear()  # clear sweeps unconditionally
        assert not live.exists()

    def test_tmp_name_is_per_process_unique(self, tmp_path):
        """Two processes sharing a directory must not race on one tmp
        path: the name embeds the writer's pid."""
        store = CheckpointStore(tmp_path / "pid")
        checkpoint = Checkpoint(
            spec={}, plane="quality", iteration=1, centroids=[[0.0]],
            epsilon_spent=0.0, rng_state={},
        )
        seen = []
        original_replace = os.replace

        def spy(src, dst):
            seen.append(str(src))
            return original_replace(src, dst)

        os.replace = spy
        try:
            store.save(checkpoint)
        finally:
            os.replace = original_replace
        assert seen and f".{os.getpid()}.tmp" in seen[0]

    def test_concurrent_saves_from_processes(self, tmp_path):
        """Many processes hammering one directory: every final checkpoint
        file parses (no torn writes, no cross-process tmp clobbering)."""
        directory = str(tmp_path / "concurrent")
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(
                _save_many, [(directory, worker) for worker in range(4)]
            ))
        store = CheckpointStore(directory)
        assert store.iterations() == list(range(1, 9))
        for iteration in store.iterations():
            loaded = Checkpoint.from_json(
                store.path_for(iteration).read_text()
            )
            assert loaded.iteration == iteration
        assert not list(store.directory.glob("*.tmp"))

    def test_rng_state_survives_json_exactly(self, tmp_path):
        """PCG64 state ints are 128-bit; JSON must carry them exactly."""
        spec = spec_for("quality")
        directory = str(tmp_path / "state")
        run_interrupted(spec, directory, 1)
        checkpoint = CheckpointStore(directory).latest()
        state = checkpoint.rng_state
        assert state["bit_generator"] == "PCG64"
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state  # restoring must be lossless
        assert rng.bit_generator.state["state"] == state["state"]
