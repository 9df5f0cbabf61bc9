"""End-to-end shadow identity for the ``vectorized-crypto`` plane.

The plane's contract: every gossip exchange carries *real* packed
Damgård–Jurik ciphertexts, yet the decoded per-iteration centroids are
bit-identical to the mock ``vectorized`` plane at the same seed — the
crypto is a transparent substrate, not a source of drift.  On top of
that identity the plane must keep every capability the mock plane has:
checkpoint/resume, fault injection, backend/kernel neutrality, and the
``crypto_ms`` telemetry split.

Nothing here pins ciphertext *bits*: the batch-columnar encryption
pipeline (one randomness stream drawn before dispatch, replacing one
``Random(seed)`` per ciphertext) changed every ciphertext once, and every
assertion below — all of them on decoded results — held unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    CheckpointSaved,
    Experiment,
    IterationCompleted,
    PLANES,
    RunSpec,
)
from repro.api.spec import PROTOCOL_PLANES
from repro.crypto import bigint

GMPY2 = "gmpy2" in bigint.available_backends()
needs_gmpy2 = pytest.mark.skipif(
    not GMPY2, reason="gmpy2 not installed (python backend is the default)"
)


def crypto_spec(**overrides) -> RunSpec:
    """A small CER workload that completes 3 full iterations in <1 s."""
    d = {
        "plane": "vectorized-crypto",
        "seed": 5,
        "strategy": "UF3",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 24, "population_scale": 1}},
        "init": {"kind": "courbogen"},
        "params": {"k": 3, "max_iterations": 3, "exchanges": 2,
                   "epsilon": 2000.0, "key_bits": 256, "theta": 0.0},
    }
    d.update(overrides)
    return RunSpec.from_dict(d)


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


class TestShadowIdentity:
    def test_decoded_centroids_match_mock_plane(self):
        """The headline identity: real ciphertexts in, the mock plane's
        exact floats out — every iteration, every centroid coordinate."""
        spec = crypto_spec()
        real = Experiment.from_spec(spec).run()
        mock = Experiment.from_spec(spec.with_plane("vectorized")).run()
        assert real.iterations == 3
        assert_bit_identical(real, mock)

    def test_identity_holds_under_churn(self):
        spec = crypto_spec(churn=0.2, seed=9)
        real = Experiment.from_spec(spec).run()
        mock = Experiment.from_spec(spec.with_plane("vectorized")).run()
        assert real.iterations >= 1
        assert_bit_identical(real, mock)

    def test_process_pool_backend_is_bit_identical(self):
        """Worker count is a speed knob, not a semantics knob."""
        serial = Experiment.from_spec(crypto_spec()).run()
        pooled_spec = crypto_spec(
            params={"k": 3, "max_iterations": 3, "exchanges": 2,
                    "epsilon": 2000.0, "key_bits": 256, "theta": 0.0,
                    "crypto_backend": "process", "backend_workers": 2},
        )
        pooled = Experiment.from_spec(pooled_spec).run()
        assert_bit_identical(pooled, serial)

    @needs_gmpy2
    def test_bigint_kernels_are_bit_identical(self):
        """python and gmpy2 arithmetic produce the same decoded run."""
        def run_with(kernel):
            spec = crypto_spec(
                params={"k": 3, "max_iterations": 3, "exchanges": 2,
                        "epsilon": 2000.0, "key_bits": 256, "theta": 0.0,
                        "bigint_backend": kernel},
            )
            return Experiment.from_spec(spec).run()

        assert_bit_identical(run_with("python"), run_with("gmpy2"))


class TestTelemetry:
    def test_crypto_ms_reported_per_iteration(self):
        events = [
            e for e in Experiment.from_spec(crypto_spec()).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        assert len(events) == 3
        assert all(e.crypto_ms is not None and e.crypto_ms > 0 for e in events)

    def test_mock_plane_reports_no_crypto_ms(self):
        spec = crypto_spec().with_plane("vectorized")
        events = [
            e for e in Experiment.from_spec(spec).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        assert events
        assert all(e.crypto_ms is None for e in events)


class TestBatchPipeline:
    def test_one_pack_and_one_encrypt_batch_per_iteration(self, monkeypatch):
        """The population's matrix is packed in one call and encrypted in
        one batch per iteration, by a table sized for the run's whole count."""
        from repro.crypto.backend import SerialBackend
        from repro.crypto.damgard_jurik import FastEncryptor
        from repro.crypto.encoding import PackedCodec

        packs, batches, sized = [], [], []
        real_pack, real_batch = PackedCodec.pack, SerialBackend.encrypt_batch
        real_init = FastEncryptor.__init__

        def pack(codec, values):
            packs.append(values.shape)
            return real_pack(codec, values)

        def encrypt_batch(backend, public, plaintexts, rng):
            batches.append(len(plaintexts))
            return real_batch(backend, public, plaintexts, rng)

        def init(encryptor, *args, **kwargs):
            real_init(encryptor, *args, **kwargs)
            sized.append((kwargs["expected_uses"], encryptor.table.shape))

        monkeypatch.setattr(PackedCodec, "pack", pack)
        monkeypatch.setattr(SerialBackend, "encrypt_batch", encrypt_batch)
        monkeypatch.setattr(FastEncryptor, "__init__", init)
        result = Experiment.from_spec(crypto_spec()).run()
        assert result.iterations == 3
        assert len(packs) == len(batches) == 3
        assert all(shape[0] == 24 and len(shape) == 2 for shape in packs)
        # Sized for all k centroids surviving every iteration (an upper
        # bound: this run loses a cluster after the first).
        assert sized == [(3 * batches[0], (10, 4))]
        assert sum(batches) <= 3 * batches[0]


class TestCheckpointResume:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_kill_and_resume_bit_identical(self, tmp_path, kill_after):
        spec = crypto_spec()
        uninterrupted = Experiment.from_spec(spec).run()
        assert uninterrupted.iterations == 3

        directory = str(tmp_path / f"kill-{kill_after}")
        saved = 0
        for event in Experiment.from_spec(spec).run_iter(
            checkpoint_dir=directory
        ):
            if isinstance(event, CheckpointSaved):
                saved += 1
                if saved >= kill_after:
                    break  # the "kill": generator simply dropped

        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, uninterrupted)


class TestPlaneWiring:
    def test_registered_as_a_protocol_plane(self):
        assert "vectorized-crypto" in PLANES
        assert "vectorized-crypto" in PROTOCOL_PLANES
        plane = PLANES.get("vectorized-crypto")
        assert plane.supports_checkpoint
        assert plane.uses_real_crypto

    def test_with_plane_pivot_reconciles_params(self):
        spec = crypto_spec().with_plane("vectorized")
        assert spec.plane == "vectorized"
        assert spec.params == crypto_spec().params  # nothing to reconcile
        back = spec.with_plane("vectorized-crypto")
        assert back == crypto_spec()

    def test_faults_accepted_and_run(self):
        """The fault plane drives the crypto plane like any protocol
        plane; an injected network fault changes the decoded output."""
        clean = Experiment.from_spec(crypto_spec()).run()
        faulty_spec = crypto_spec(
            faults=[{"kind": "network", "params": {"loss": 0.1}}],
        )
        faulty = Experiment.from_spec(faulty_spec).run()
        assert faulty.iterations >= 1
        assert not np.array_equal(faulty.centroids, clean.centroids)


class TestObjectPlaneParity:
    def test_object_plane_gossips_the_same_schedule(
        self, toy_dataset, toy_initial_centroids
    ):
        """At churn 0 and τ = 1 the object plane's per-node ciphertexts and
        vectorized-crypto's arrays gossip one pairing, walk one surplus
        correction and finish decryption in one cycle: every iteration's
        exchanges per node are equal and the decoded centroids are
        bit-identical."""

        def spec(plane):
            return RunSpec.from_dict({
                "plane": plane,
                "seed": 2,
                "strategy": "UF3",
                "dataset": {"kind": "timeseries",
                            "params": {"values": toy_dataset.values.tolist(),
                                       "dmin": 0.0, "dmax": 60.0}},
                "init": {"kind": "matrix",
                         "params": {"values": toy_initial_centroids.tolist()}},
                "params": {"k": 3, "max_iterations": 3, "exchanges": 6,
                           "epsilon": 2000.0, "key_bits": 256, "expansion_s": 2,
                           "use_smoothing": False, "theta": 0.0},
            })

        runs = {
            plane: [
                event for event in Experiment.from_spec(spec(plane)).run_iter()
                if isinstance(event, IterationCompleted)
            ]
            for plane in ("object", "vectorized-crypto")
        }
        objects, arrays = runs["object"], runs["vectorized-crypto"]
        assert len(objects) == len(arrays) == 3
        for ours, theirs in zip(objects, arrays):
            assert ours.exchanges_per_node == theirs.exchanges_per_node
            assert np.array_equal(ours.stats.centroids, theirs.stats.centroids)


class TestCrossPlaneAtTauAboveOne:
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_planes_agree_within_the_epidemic_spread(
        self, toy_dataset, toy_initial_centroids, seed
    ):
        """At τ = 3 (``tau_fraction`` 0.125 of 24) a node needs key shares
        from others, so the object plane's epidemic decryption — real share
        ids, the laggard adopting the leader's bundle — and the array
        planes' cardinality collector can finish on different cycles and
        decode different bundles.  Every iteration's centroids must still
        agree within the larger of the two planes' cross-node spread:
        ``max |object − array| / max |array|`` ≤ that ``agreement``.
        ``exchanges_per_node`` may differ (the collector is not exact share
        ids)."""

        def spec(plane):
            return RunSpec.from_dict({
                "plane": plane,
                "seed": seed,
                "strategy": "UF3",
                "dataset": {"kind": "timeseries",
                            "params": {"values": toy_dataset.values.tolist(),
                                       "dmin": 0.0, "dmax": 60.0}},
                "init": {"kind": "matrix",
                         "params": {"values": toy_initial_centroids.tolist()}},
                "params": {"k": 3, "max_iterations": 3, "exchanges": 6,
                           "epsilon": 2000.0, "key_bits": 256, "expansion_s": 2,
                           "use_smoothing": False, "theta": 0.0,
                           "tau_fraction": 0.125},
            })

        runs = {
            plane: [
                event for event in Experiment.from_spec(spec(plane)).run_iter()
                if isinstance(event, IterationCompleted)
            ]
            for plane in ("object", "vectorized-crypto")
        }
        objects, arrays = runs["object"], runs["vectorized-crypto"]
        assert len(objects) == len(arrays) == 3
        for ours, theirs in zip(objects, arrays):
            ours_c, theirs_c = ours.stats.centroids, theirs.stats.centroids
            assert ours_c.shape == theirs_c.shape
            gap = np.abs(ours_c - theirs_c).max() / np.abs(theirs_c).max()
            assert gap <= max(ours.agreement, theirs.agreement)
