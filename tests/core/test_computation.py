"""Direct unit tests of the Algorithm 3 computation step."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ComputationStep, NoisePlan
from repro.core.computation import (
    VectorizedComputationStep,
    VectorizedCryptoComputationStep,
    add_means,
)
from repro.crypto.encoding import PackedCodec
from repro.gossip import GossipEngine, VectorizedGossipEngine


@pytest.fixture()
def tiny_setup(threshold_keypair_s2):
    """8 nodes, k = 2, series length 3, negligible noise."""
    keypair = threshold_keypair_s2
    # Room for 107 exchanges, beyond the step's 2·15 cycles, so that a
    # vector spans two plaintexts; one vector (means + noise on the grid)
    # per node; data ≤ 30 plus a negligible noise share (ε = 1e9).
    packed = PackedCodec.plan(
        keypair.public, fractional_bits=20, max_abs_value=31.0, exchanges=107
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
    return step, labels, series


class TestComputationStep:
    def test_every_node_decodes(self, tiny_setup):
        step, labels, series = tiny_setup
        engine = GossipEngine(8, seed=7)
        output = step.run(engine, labels, series)
        assert set(output.sums) == set(range(8))

    def test_sums_and_counts_match_truth(self, tiny_setup):
        step, labels, series = tiny_setup
        engine = GossipEngine(8, seed=8)
        output = step.run(engine, labels, series)
        for node in range(8):
            means, counts = output.perturbed_means(node)
            assert counts[0] == pytest.approx(4.0, abs=0.05)
            assert counts[1] == pytest.approx(4.0, abs=0.05)
            assert np.allclose(means[0], [1.0, 2.0, 3.0], atol=0.1)
            assert np.allclose(means[1], [10.0, 20.0, 30.0], atol=0.3)

    def test_agreement_small(self, tiny_setup):
        step, labels, series = tiny_setup
        engine = GossipEngine(8, seed=9)
        output = step.run(engine, labels, series)
        assert output.agreement() < 1e-2

    def test_noise_plan_dimensions_respected(self, tiny_setup):
        step, _, _ = tiny_setup
        dims = step.noise_plan.dimensions
        assert 1 < step.packed.packed_length(dims) < dims


class TestStaging:
    def test_means_and_share_meet_on_the_grid(self):
        """One node, one share row: the one staging function quantizes the
        mean and the share apart and sums them on the grid, entry by entry
        ``(round(mean·2^f) + round(share·2^f)) / 2^f`` of the dense means
        vector, byte for byte.  A share that rounds to −0.0 becomes +0.0
        off the assigned stripe and keeps its sign on a mean that rounded
        to −0.0; ties round half-even, mean and share apart."""
        fractional_bits = NoisePlan.fractional_bits
        scale = float(1 << fractional_bits)
        ulp = 1.0 / scale
        series = np.array([1.0, -1e-12, 0.5 * ulp])
        share = np.array(
            [2.5 * ulp, -1e-12, 0.5 * ulp, 3.5 * ulp, -1e-12, -0.0, 0.7, -2.5 * ulp]
        )
        means = np.zeros(8)  # k = 2 stripes of n + 1; cluster 0 holds the node
        means[:3], means[3] = series, 1.0

        payload = share[None, :].copy()
        add_means(payload, np.array([0]), series[None, :], fractional_bits)
        staged = payload[0]
        expected = (np.round(means * scale) + np.round(share * scale)) / scale
        assert staged.tobytes() == expected.tobytes()
        assert np.signbit(staged[1]) and staged[1] == 0.0  # −0.0 + −0.0
        assert not np.signbit(staged[4:6]).any()  # +0.0 mean off the stripe
        assert staged[0] == 1.0 + 2 * ulp and staged[7] == -2 * ulp
        assert staged[2] == 0.0  # two ½-ulp ties, not one whole ulp


# --------------------------------------------------------------------------
# Array-plane carriers: one pipeline, so the mock and the real-ciphertext
# step must agree step by step — not only at the end of a whole run.

POPULATION = 16
EXCHANGES = 6


def _run_array_steps(keypair, churn, seed=3, decode_sample=8, **step_kwargs):
    """The same seed through both carriers → (mock, cipher) run records
    (``step``, ``output``, ``noise_rng``, ``engine``)."""
    plan = NoisePlan(
        k=2, series_length=3, dmin=0.0, dmax=30.0, epsilon=5.0, n_nu=POPULATION
    )
    data_rng = np.random.default_rng(seed)
    labels = data_rng.integers(0, 2, size=POPULATION)
    series = np.array([data_rng.uniform(0, 30, 3) for _ in labels])
    packed = plan.codec(keypair.public, exchanges=2 * EXCHANGES)
    common = dict(
        noise_plan=plan, exchanges=EXCHANGES, threshold=3, **step_kwargs
    )
    records = []
    for build in (
        lambda rng: VectorizedComputationStep(noise_rng=rng, **common),
        lambda rng: VectorizedCryptoComputationStep(
            keypair=keypair, packed=packed, crypto_rng=random.Random(seed),
            noise_rng=rng, decode_sample=decode_sample, **common,
        ),
    ):
        noise_rng = np.random.default_rng(seed + 1)
        engine = VectorizedGossipEngine(POPULATION, seed=seed + 2, churn=churn)
        step = build(noise_rng)
        output = step.run(engine, labels, series)
        records.append(
            SimpleNamespace(
                step=step, output=output, noise_rng=noise_rng, engine=engine
            )
        )
    return records


def _assert_same_rng_states(mock, cipher):
    for rng in (lambda run: run.noise_rng, lambda run: run.engine.rng):
        assert rng(mock).bit_generator.state == rng(cipher).bit_generator.state
    assert np.array_equal(mock.engine.exchanges, cipher.engine.exchanges)


class TestArrayCarrierParity:
    @pytest.mark.parametrize("churn", [0.0, 0.3])
    def test_cipher_step_decodes_the_mock_steps_floats(
        self, threshold_keypair, churn
    ):
        mock, cipher = _run_array_steps(threshold_keypair, churn, decode_sample=4)
        mock_out, cipher_out = mock.output, cipher.output
        # The cipher step pays decryption for the first decode_sample nodes
        # of the window the mock decodes in full.
        assert sorted(cipher_out.sums) == sorted(mock_out.sums)[:4]
        for node in cipher_out.sums:
            assert np.array_equal(cipher_out.sums[node], mock_out.sums[node])
            assert np.array_equal(cipher_out.counts[node], mock_out.counts[node])
        _assert_same_rng_states(mock, cipher)
        assert mock.step.crypto_seconds is None
        assert cipher.step.crypto_seconds > 0.0

    def test_churn_so_high_nobody_gossips(self, threshold_keypair):
        """No exchange ever happens: ω never leaves node 0, which decodes
        its own noised payload — identically on both carriers."""
        mock, cipher = _run_array_steps(threshold_keypair, churn=0.999)
        assert list(mock.output.sums) == list(cipher.output.sums) == [0]
        assert np.array_equal(mock.output.sums[0], cipher.output.sums[0])
        assert np.array_equal(mock.output.counts[0], cipher.output.counts[0])
        assert mock.engine.exchanges.sum() == 0
        _assert_same_rng_states(mock, cipher)

    def test_empty_sample_returns_an_empty_output(self, threshold_keypair):
        """ω is conserved, so some node always holds weight; the empty
        window is the way to the early return.  Neither carrier may open
        anything or draw a correction on it."""
        mock, cipher = _run_array_steps(
            threshold_keypair, churn=0.3, agreement_sample=0
        )
        assert not mock.output.sums and not mock.output.counts
        assert not cipher.output.sums and not cipher.output.counts
        _assert_same_rng_states(mock, cipher)

    def test_vectorized_steps_are_siblings(self):
        """The three gossiping carriers inherit one ``run`` and are
        siblings: perf/spans.py wraps each class's ``run`` by name, and
        were one step a subclass of another, the second wrapper would wrap
        the first and every call would be counted twice."""
        steps = (
            ComputationStep, VectorizedComputationStep,
            VectorizedCryptoComputationStep,
        )
        for step, other in itertools.permutations(steps, 2):
            assert not issubclass(step, other)
        assert len({step.run for step in steps}) == 1
