"""Tests for the encrypted epidemic sum (Algorithm 2) — including the
App. C.2.1 equivalence against the cleartext protocol by shadow execution."""

import random

import numpy as np
import pytest

from repro.crypto import FixedPointCodec, decrypt, encrypt
from repro.gossip import EESum, EpidemicSum, GossipEngine
from repro.gossip.vectorized_protocol import pairing_cycles


@pytest.fixture(scope="module")
def setup_eesum(request):
    """Factory running an EESum over n nodes with given scalar values."""

    def build(keypair, values, cycles=12, seed=0):
        codec = FixedPointCodec(keypair.public, fractional_bits=16)
        rng = random.Random(seed)
        initial = {
            i: [encrypt(keypair.public, codec.encode(v), rng=rng)] for i, v in enumerate(values)
        }
        engine = GossipEngine(len(values), seed=seed)
        protocol = EESum(keypair.public, initial)
        engine.setup(protocol)
        engine.run_cycles(cycles, protocol)
        return engine, protocol, codec

    return build


class TestEESumConvergence:
    def test_estimates_global_sum(self, keypair_s2, setup_eesum):
        values = [1.5, -2.0, 3.25, 10.0, 0.0, 4.75, -1.5, 8.0]
        engine, protocol, codec = setup_eesum(
            keypair_s2, values, cycles=pairing_cycles(15)
        )
        exact = sum(values)
        for node in engine.nodes:
            state = protocol.state_of(node)
            if state.omega == 0:
                continue
            decoded = codec.decode(decrypt(keypair_s2, state.ciphertexts[0]))
            assert decoded / state.omega == pytest.approx(exact, rel=1e-4)

    def test_weight_spreads_to_everyone(self, keypair_s2, setup_eesum):
        engine, protocol, _ = setup_eesum(keypair_s2, [1.0] * 12, cycles=15)
        assert all(protocol.state_of(node).omega > 0 for node in engine.nodes)

    def test_counter_advances(self, keypair_s2, setup_eesum):
        engine, protocol, _ = setup_eesum(keypair_s2, [1.0] * 6, cycles=5)
        assert all(protocol.state_of(node).count > 0 for node in engine.nodes)

    def test_vector_payload(self, keypair_s2):
        """A two-element vector sums element-wise under one shared counter."""
        codec = FixedPointCodec(keypair_s2.public, fractional_bits=16)
        rng = random.Random(1)
        pub = keypair_s2.public
        initial = {
            i: [
                encrypt(pub, codec.encode(float(i)), rng=rng),
                encrypt(pub, codec.encode(2.0 * i), rng=rng),
            ]
            for i in range(8)
        }
        engine = GossipEngine(8, seed=1)
        protocol = EESum(pub, initial)
        engine.setup(protocol)
        engine.run_cycles(pairing_cycles(15), protocol)
        node = engine.nodes[3]
        state = protocol.state_of(node)
        first = codec.decode(decrypt(keypair_s2, state.ciphertexts[0])) / state.omega
        second = codec.decode(decrypt(keypair_s2, state.ciphertexts[1])) / state.omega
        assert first == pytest.approx(28.0, rel=1e-4)
        assert second == pytest.approx(56.0, rel=1e-4)

    def test_mismatched_vector_length_rejected(self, keypair_s2):
        pub = keypair_s2.public
        rng = random.Random(2)
        initial = {0: [encrypt(pub, 1, rng=rng)], 1: [encrypt(pub, 1, rng=rng)] * 2}
        engine = GossipEngine(2, seed=2)
        protocol = EESum(pub, initial)
        engine.setup(protocol)
        with pytest.raises(ValueError):
            protocol.exchange(engine.nodes[0], engine.nodes[1])


class TestAppendixCEquivalence:
    """App. C.2.1: the Alg. 2 update rule is arithmetically equivalent to the
    cleartext push–pull rule — verified by shadow execution on the *same*
    exchange schedule."""

    def test_shadow_equivalence(self, keypair_s2):
        pub = keypair_s2.public
        codec = FixedPointCodec(pub, fractional_bits=16)
        rng = random.Random(3)
        values = [2.0, -1.0, 7.5, 3.0, 0.25, -4.5]
        initial_enc = {
            i: [encrypt(pub, codec.encode(v), rng=rng)] for i, v in enumerate(values)
        }
        initial_clear = {i: np.array([v]) for i, v in enumerate(values)}

        engine = GossipEngine(len(values), seed=3)
        encrypted = EESum(pub, initial_enc)
        cleartext = EpidemicSum(initial_clear)
        engine.setup(encrypted, cleartext)
        engine.run_cycles(10, encrypted, cleartext)

        for node in engine.nodes:
            state = encrypted.state_of(node)
            clear = node.state["episum"]
            # Encrypted value / 2^count must equal the cleartext σ exactly
            # (up to fixed-point resolution).
            decoded = codec.decode(decrypt(keypair_s2, state.ciphertexts[0]))
            assert decoded / (2.0**state.count) == pytest.approx(
                float(clear["sigma"][0]), abs=1e-3
            )
            # Scaled weight likewise mirrors the cleartext ω.
            assert state.omega / (2.0**state.count) == pytest.approx(
                clear["omega"], abs=1e-12
            )
