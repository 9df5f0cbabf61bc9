"""Tests for the packed ciphertext layout through the object step and the
backend plumbing through the full protocol.

The two strong guarantees under test:

* packed ciphertexts decode **bit-identically** to the scalar reference
  encoding (``FixedPointCodec``, one ciphertext per value) after a real
  EESum accumulation (bias subtraction with the clear coefficient total
  ``2^count`` is exact);
* a full protocol run is **reproducible across backends**: serial and
  process-pool executions with the same seed produce identical centroids.
"""

import random

import numpy as np
import pytest

from _runs import fold
from repro.core import (
    ChiaroscuroParams,
    ChiaroscuroRun,
    ComputationStep,
    NoisePlan,
)
from repro.crypto import (
    FixedPointCodec,
    PackedCodec,
    SerialBackend,
    combine_partial_decryptions,
    decrypt,
    encrypt,
    encrypt_batch,
    generate_threshold_keypair,
    partial_decrypt,
)
from repro.datasets import TimeSeriesSet
from repro.gossip import GossipEngine
from repro.gossip.eesum import EESum
from repro.privacy import Greedy, UniformFast


@pytest.fixture()
def codecs(threshold_keypair):
    """The scalar reference encoding and a packed codec on the same grid."""
    public = threshold_keypair.public
    codec = FixedPointCodec(public, fractional_bits=16)
    packed = PackedCodec(
        public, fractional_bits=16, value_bits=24, accumulation_bits=40
    )
    return codec, packed


class TestPackedPlaneEquivalence:
    def test_eesum_decodes_bit_identical_to_scalar(
        self, threshold_keypair, codecs, tiny_dataset
    ):
        """Run the same values through a real gossip EESum in both layouts;
        the decoded estimates must be equal as floats, not just close.  The
        packed layout decodes with the clear coefficient total ``2^count``
        — on six hand-picked vectors and on the 24-node dataset's."""
        codec, packed = codecs
        public, private = threshold_keypair.public, threshold_keypair.private
        rng = random.Random(3)
        layouts = {
            "scalar": (
                lambda v: [codec.encode(float(x)) for x in v],
                lambda plaintexts, dims, count: [
                    codec.decode(p) for p in plaintexts
                ],
            ),
            "packed": (
                packed.pack,
                lambda plaintexts, dims, count: packed.unpack(
                    plaintexts, dims, bias_multiplier=1 << count
                ),
            ),
        }
        cases = (
            [[float(i) + 0.5, -2.0 * i, 7.25] for i in range(6)],
            tiny_dataset.values.tolist(),
        )
        for values in cases:
            population, dims = len(values), len(values[0])
            estimates = {}
            for name, (encode, decode) in layouts.items():
                initial = {
                    i: encrypt_batch(public, encode(v), rng)
                    for i, v in enumerate(values)
                }
                engine = GossipEngine(population, seed=11)
                eesum = EESum(public, initial)
                engine.setup(eesum)
                engine.run_cycles(8, eesum)
                per_node = []
                for node in engine.nodes:
                    state = eesum.state_of(node)
                    plaintexts = [decrypt(private, c) for c in state.ciphertexts]
                    decoded = np.array(decode(plaintexts, dims, state.count))
                    per_node.append(decoded / state.omega)
                estimates[name] = per_node

            for scalar_est, packed_est in zip(
                estimates["scalar"], estimates["packed"]
            ):
                assert scalar_est.tolist() == packed_est.tolist()

    def test_tracker_counts_coefficient_mass(self, threshold_keypair):
        """The ciphertext the packed plane used to carry, kept as a witness:
        an ``E(1)`` per node gossiped through a real EESum threshold-decrypts
        to the coefficient total, and that total is ``1 << count`` — the
        clear counter the plane now reads instead (the property over random
        schedules is in ``tests/properties/test_coefficient_total.py``)."""
        tk = threshold_keypair
        rng = random.Random(4)
        engine = GossipEngine(7, seed=12, churn=0.2)
        ones = {i: [encrypt(tk.public, 1, rng=rng)] for i in range(7)}
        eesum = EESum(tk.public, ones)
        engine.setup(eesum)
        engine.run_cycles(5, eesum)
        counts = set()
        for node in engine.nodes:
            state = eesum.state_of(node)
            (ciphertext,) = state.ciphertexts
            partials = {
                share.index: partial_decrypt(tk.context, share, ciphertext)
                for share in tk.shares[:3]
            }
            total = combine_partial_decryptions(tk.context, partials)
            assert total == 1 << state.count
            counts.add(state.count)
        assert len(counts) > 1  # churn left the counters unequal

    def test_packed_length(self, codecs):
        _, packed = codecs
        assert packed.packed_length(packed.slots) == 1
        assert packed.packed_length(packed.slots + 1) == 2


class TestComputationStepPacked:
    def test_sums_and_counts_match_truth(self, threshold_keypair_s2):
        """The Alg. 3 step recovers the true per-cluster sums and counts
        (negligible noise)."""
        keypair = threshold_keypair_s2
        packed = PackedCodec(
            keypair.public, fractional_bits=20, value_bits=28, accumulation_bits=90
        )
        crypto_rng = random.Random(0)
        series = np.array(
            [[1.0, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3],
             [10, 20, 30], [10, 20, 30], [10, 20, 30], [10, 20, 30]]
        )
        labels = np.repeat([0, 1], 4)
        plan = NoisePlan(
            k=2, series_length=3, dmin=0.0, dmax=30.0, epsilon=1e9, n_nu=8
        )
        step = ComputationStep(
            keypair=keypair, packed=packed, noise_plan=plan, exchanges=15,
            crypto_rng=crypto_rng, noise_rng=np.random.default_rng(1),
        )
        output = step.run(GossipEngine(8, seed=8), labels, series)
        assert set(output.sums) == set(range(8))
        for node in range(8):
            means, counts = output.perturbed_means(node)
            assert counts[0] == pytest.approx(4.0, abs=0.05)
            assert counts[1] == pytest.approx(4.0, abs=0.05)
            assert np.allclose(means[0], [1.0, 2.0, 3.0], atol=0.1)
            assert np.allclose(means[1], [10.0, 20.0, 30.0], atol=0.3)


class TestObjectEncryptionTraffic:
    def test_one_population_batch_per_iteration(
        self, monkeypatch, toy_dataset, toy_initial_centroids,
        threshold_keypair_s2,
    ):
        """The object step encrypts once per iteration: one
        ``encrypt_batch`` call over ``t × packed_length(dims)`` plaintexts,
        every node's means + noise share in node order.  The ciphertexts
        are the ones per-node calls would give from the same stream — one
        ``getrandbits`` covers the concatenated draw."""
        original = SerialBackend.encrypt_batch
        calls = []

        def spy(backend, public, plaintexts, rng):
            state = rng.getstate()
            ciphertexts = original(backend, public, plaintexts, rng)
            calls.append((backend, public, list(plaintexts), state, ciphertexts))
            return ciphertexts

        monkeypatch.setattr(SerialBackend, "encrypt_batch", spy)
        params = ChiaroscuroParams(
            k=3, max_iterations=2, exchanges=4, tau_fraction=0.13,
            epsilon=1e3, expansion_s=2, use_smoothing=False, theta=0.0,
        )
        run = ChiaroscuroRun(
            toy_dataset, UniformFast(1e3, 2), params, toy_initial_centroids,
            seed=3, keypair=threshold_keypair_s2,
        )
        records = list(run.run_iter())
        assert len(records) == len(calls) == 2
        width = run.packed.packed_length(run.noise_plan.dimensions)
        for backend, public, plaintexts, state, ciphertexts in calls:
            assert len(plaintexts) == len(ciphertexts) == toy_dataset.t * width
            rng = random.Random()
            rng.setstate(state)
            per_node = [
                ciphertext
                for first in range(0, len(plaintexts), width)
                for ciphertext in original(
                    backend, public, plaintexts[first : first + width], rng
                )
            ]
            assert per_node == list(ciphertexts)


class TestExponentiationsAreCounted:
    """ROADMAP 3(a): threshold decryption is the object plane's cost, so the
    number of partial decryptions is pinned, not guessed."""

    def test_one_partial_per_ciphertext_at_tau_one(self, counting_backend):
        """τ = 1 (the ``object_decrypt`` workload's regime): a node's own
        share finishes its vector at setup, so an iteration costs exactly
        ``nodes × packed_length(dims)`` exponentiations — no ciphertext
        besides the payload is decrypted."""
        nodes = 6
        keypair = generate_threshold_keypair(
            256, n_shares=nodes, threshold=1, s=2, rng=random.Random(21)
        )
        packed = PackedCodec(
            keypair.public, fractional_bits=20, value_bits=28, accumulation_bits=90
        )
        plan = NoisePlan(
            k=2, series_length=3, dmin=0.0, dmax=30.0, epsilon=1e9, n_nu=nodes
        )
        crypto_rng = random.Random(0)
        labels = np.arange(nodes) % plan.k
        series = np.repeat(np.arange(nodes, dtype=float)[:, None], 3, axis=1)
        step = ComputationStep(
            keypair=keypair, packed=packed, noise_plan=plan, exchanges=6,
            crypto_rng=crypto_rng, noise_rng=np.random.default_rng(1),
            backend=counting_backend,
        )
        output = step.run(GossipEngine(nodes, seed=3), labels, series)
        assert len(output.sums) == nodes
        assert counting_backend.partials_computed == nodes * packed.packed_length(
            plan.dimensions
        )


@pytest.fixture(scope="module")
def tiny_dataset():
    rng = np.random.default_rng(6)
    base = np.array([[5.0, 5, 40, 40], [40, 40, 5, 5]])
    values = np.clip(np.repeat(base, 12, axis=0) + rng.normal(0, 1, (24, 4)), 0, 60)
    return TimeSeriesSet(values, dmin=0.0, dmax=60.0, name="tiny")


class TestProtocolBackendPlumbing:
    def test_backend_selected_from_params(self, tiny_dataset, threshold_keypair_s2):
        params = ChiaroscuroParams(
            k=2, max_iterations=1, exchanges=8, tau_fraction=0.13,
            epsilon=1e6, expansion_s=2, use_smoothing=False, theta=0.0,
            crypto_backend="process", backend_workers=2,
        )
        run = ChiaroscuroRun(
            tiny_dataset, UniformFast(1e6, 1), params,
            np.array([[10.0, 10, 30, 30], [30, 30, 10, 10]]),
            seed=2, keypair=threshold_keypair_s2,
        )
        assert run.backend.name == "process"
        assert run.backend.max_workers == 2
        run.close()

    @pytest.mark.parametrize("iterations, shape", [(1, (6, 4)), (3, (8, 3))])
    def test_table_window_sized_from_the_runs_encryption_count(
        self, tiny_dataset, threshold_keypair_s2, iterations, shape
    ):
        """24 nodes × one vector (means + noise share) of one packed
        ciphertext per iteration — the 10 values fill one plaintext's 10
        slots: one iteration (24 uses) gets a 6-teeth comb of 4 blocks (42
        products + 10 squarings per encryption), three (72) widen it to 8
        teeth of 3 blocks to cut the products to 31."""
        params = ChiaroscuroParams(
            k=2, max_iterations=iterations, exchanges=8, tau_fraction=0.13,
            epsilon=1e6, expansion_s=2, use_smoothing=False, theta=0.0,
        )
        run = ChiaroscuroRun(
            tiny_dataset, UniformFast(1e6, iterations), params,
            np.array([[10.0, 10, 30, 30], [30, 30, 10, 10]]),
            seed=2, keypair=threshold_keypair_s2,
        )
        assert run.packed.packed_length(2 * 5) == 1
        assert run.encryptor.table.shape == shape

    @pytest.mark.parametrize(
        "strategy, last_fit",
        [(Greedy(0.69), 100), (UniformFast(0.69, 5), 104)],
        ids=["G", "UF5"],
    )
    def test_refusal_boundary(
        self, tiny_dataset, threshold_keypair, strategy, last_fit
    ):
        """9 devices on a 256-bit s=1 key, 10 iterations: the accumulation
        headroom grows 2 bits per exchange (two pairing cycles), so there is
        a last ``n_e`` whose single slot still fits the 255-bit plaintext —
        and the next one is refused at construction, naming the way out
        (the smaller worst ε slice of GREEDY costs it four exchanges).  No
        other ciphertext layout takes over past the boundary."""
        nine = TimeSeriesSet(tiny_dataset.values[:9], dmin=0.0, dmax=60.0)

        def build(exchanges):
            params = ChiaroscuroParams(
                k=2, max_iterations=10, exchanges=exchanges, tau_fraction=0.3,
                epsilon=0.69, use_smoothing=False,
            )
            return ChiaroscuroRun(
                nine, strategy, params, nine.values[:2], keypair=threshold_keypair
            )

        packed = build(last_fit).packed
        assert packed.slots == 1
        assert packed.slot_bits + 2 > threshold_keypair.public.plaintext_bits
        with pytest.raises(ValueError, match="key size or the expansion s"):
            build(last_fit + 1)

    def test_serial_and_process_runs_identical(
        self, tiny_dataset, threshold_keypair_s2
    ):
        """Satellite: randomness drawn before dispatch makes protocol runs
        reproducible across backends — centroids match exactly, not
        approximately."""
        centroids = np.array([[10.0, 10, 30, 30], [30, 30, 10, 10]])
        results = {}
        for backend in ("serial", "process"):
            params = ChiaroscuroParams(
                k=2, max_iterations=1, exchanges=8, tau_fraction=0.13,
                epsilon=5.0, expansion_s=2, use_smoothing=False, theta=0.0,
                crypto_backend=backend, backend_workers=2,
            )
            run = ChiaroscuroRun(
                tiny_dataset, UniformFast(5.0, 1), params, centroids,
                seed=9, keypair=threshold_keypair_s2,
            )
            result, _ = fold(run)
            results[backend] = result
        serial, process = results["serial"], results["process"]
        assert len(serial.history) == len(process.history) == 1
        assert serial.history[0].centroids.tolist() == (
            process.history[0].centroids.tolist()
        )
        assert serial.centroids.tolist() == process.centroids.tolist()
